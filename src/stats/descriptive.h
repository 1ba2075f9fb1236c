#ifndef FAIRBENCH_STATS_DESCRIPTIVE_H_
#define FAIRBENCH_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <vector>

namespace fairbench {

/// Five-number-plus summary used by the stability harness (boxplots in
/// Figs 12-16).
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< Sample variance (n-1 denominator; 0 if n < 2).
  double stddev = 0.0;
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double iqr = 0.0;
  std::size_t num_outliers = 0;  ///< Points beyond 1.5*IQR whiskers.
};

/// Computes a full descriptive summary of `values` (empty input allowed).
Summary Summarize(const std::vector<double>& values);

/// Sample mean (0 for empty input).
double SampleMean(const std::vector<double>& values);

/// Sample variance with n-1 denominator (0 when n < 2).
double SampleVariance(const std::vector<double>& values);

/// Sample standard deviation.
double SampleStddev(const std::vector<double>& values);

/// q-th quantile (q in [0,1]) with linear interpolation between order
/// statistics. Requires non-empty input.
double Quantile(std::vector<double> values, double q);

}  // namespace fairbench

#endif  // FAIRBENCH_STATS_DESCRIPTIVE_H_
