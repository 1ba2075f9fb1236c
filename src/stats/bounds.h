#ifndef FAIRBENCH_STATS_BOUNDS_H_
#define FAIRBENCH_STATS_BOUNDS_H_

#include <cstddef>
#include <vector>

namespace fairbench {

/// High-confidence upper bounds on the mean of a bounded random variable,
/// as used by THOMAS's Seldonian safety test (paper Appendix A.2) and by
/// the CD sampling heuristic.

/// One-sided Student-t upper confidence bound on the population mean of
/// `sample`: mean + t_{1-delta, n-1} * s / sqrt(n). Returns +inf for n < 2.
double StudentTUpperBound(const std::vector<double>& sample, double delta);

/// One-sided Student-t lower confidence bound on the population mean.
double StudentTLowerBound(const std::vector<double>& sample, double delta);

/// Number of Bernoulli samples needed so that the empirical proportion is
/// within `error` of the true proportion with confidence `confidence`
/// (two-sided Hoeffding). Used to size CD's intervention sample: with the
/// paper's parameters (99% confidence, 1% error) this is ~26,492. A size
/// beyond std::size_t (e.g. error = 1e-300) or a NaN input saturates to
/// SIZE_MAX.
std::size_t HoeffdingSampleSize(double error, double confidence);

}  // namespace fairbench

#endif  // FAIRBENCH_STATS_BOUNDS_H_
