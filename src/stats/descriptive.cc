#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

namespace fairbench {

double SampleMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double SampleVariance(const std::vector<double>& values) {
  const std::size_t n = values.size();
  if (n < 2) return 0.0;
  const double m = SampleMean(values);
  double s = 0.0;
  for (double v : values) s += (v - m) * (v - m);
  return s / static_cast<double>(n - 1);
}

double SampleStddev(const std::vector<double>& values) {
  return std::sqrt(SampleVariance(values));
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.mean = SampleMean(values);
  s.variance = SampleVariance(values);
  s.stddev = std::sqrt(s.variance);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.q1 = Quantile(sorted, 0.25);
  s.median = Quantile(sorted, 0.5);
  s.q3 = Quantile(sorted, 0.75);
  s.iqr = s.q3 - s.q1;
  const double lo_fence = s.q1 - 1.5 * s.iqr;
  const double hi_fence = s.q3 + 1.5 * s.iqr;
  for (double v : sorted) {
    if (v < lo_fence || v > hi_fence) ++s.num_outliers;
  }
  return s;
}

}  // namespace fairbench
