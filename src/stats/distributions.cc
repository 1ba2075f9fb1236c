#include "stats/distributions.h"

#include <cmath>

namespace fairbench {
namespace {

/// Continued-fraction evaluation for the incomplete beta function
/// (Numerical-Recipes-style modified Lentz algorithm).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double LogGamma(double x) {
  // Lanczos approximation, g = 7, n = 9.
  static const double kCoef[] = {
      0.99999999999980993,  676.5203681218851,     -1259.1392167224028,
      771.32342877765313,   -176.61502916214059,   12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    return std::log(M_PI / std::sin(M_PI * x)) - LogGamma(1.0 - x);
  }
  x -= 1.0;
  double a = kCoef[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) a += kCoef[i] / (x + i);
  return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t + std::log(a);
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_beta =
      LogGamma(a + b) - LogGamma(a) - LogGamma(b) + a * std::log(x) +
      b * std::log(1.0 - x);
  const double front = std::exp(ln_beta);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double df) {
  const double x = df / (df + t * t);
  const double p = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - p : p;
}

double StudentTQuantile(double p, double df) {
  // Bisection on the CDF; the CDF is smooth and strictly increasing so 80
  // iterations give ~1e-15 interval width relative to the bracket.
  if (p <= 0.5 + 1e-15 && p >= 0.5 - 1e-15) return 0.0;
  double lo = -1.0;
  double hi = 1.0;
  while (StudentTCdf(lo, df) > p) lo *= 2.0;
  while (StudentTCdf(hi, df) < p) hi *= 2.0;
  for (int i = 0; i < 120; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (StudentTCdf(mid, df) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace fairbench
