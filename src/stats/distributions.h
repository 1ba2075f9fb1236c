#ifndef FAIRBENCH_STATS_DISTRIBUTIONS_H_
#define FAIRBENCH_STATS_DISTRIBUTIONS_H_

namespace fairbench {

/// CDF of Student's t distribution with `df` degrees of freedom.
double StudentTCdf(double t, double df);

/// Inverse CDF (quantile) of Student's t distribution with `df` degrees of
/// freedom. Used by THOMAS's t-test-based confidence bound. p in (0, 1).
double StudentTQuantile(double p, double df);

/// Regularized incomplete beta function I_x(a, b), the workhorse behind the
/// t and F distributions. x in [0, 1].
double RegularizedIncompleteBeta(double a, double b, double x);

/// Natural log of the gamma function (Lanczos approximation).
double LogGamma(double x);

}  // namespace fairbench

#endif  // FAIRBENCH_STATS_DISTRIBUTIONS_H_
