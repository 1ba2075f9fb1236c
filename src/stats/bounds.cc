#include "stats/bounds.h"

#include <cmath>
#include <limits>

#include "stats/descriptive.h"
#include "stats/distributions.h"

namespace fairbench {

double StudentTUpperBound(const std::vector<double>& sample, double delta) {
  const std::size_t n = sample.size();
  if (n < 2) return std::numeric_limits<double>::infinity();
  const double mean = SampleMean(sample);
  const double sd = SampleStddev(sample);
  const double t = StudentTQuantile(1.0 - delta, static_cast<double>(n - 1));
  return mean + t * sd / std::sqrt(static_cast<double>(n));
}

double StudentTLowerBound(const std::vector<double>& sample, double delta) {
  const std::size_t n = sample.size();
  if (n < 2) return -std::numeric_limits<double>::infinity();
  const double mean = SampleMean(sample);
  const double sd = SampleStddev(sample);
  const double t = StudentTQuantile(1.0 - delta, static_cast<double>(n - 1));
  return mean - t * sd / std::sqrt(static_cast<double>(n));
}

std::size_t HoeffdingSampleSize(double error, double confidence) {
  const double delta = 1.0 - confidence;
  const double n = std::ceil(std::log(2.0 / delta) / (2.0 * error * error));
  // Casting a NaN or out-of-range double is undefined, so saturate first: a
  // tiny `error` asks for more samples than any dataset holds.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (!(n < static_cast<double>(kMax))) return kMax;
  return static_cast<std::size_t>(n);
}

}  // namespace fairbench
