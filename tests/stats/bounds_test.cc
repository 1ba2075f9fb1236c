#include "stats/bounds.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "stats/descriptive.h"

namespace fairbench {
namespace {

TEST(HoeffdingSampleSizeTest, PaperSetting) {
  // 99% confidence, 1% error: n = ln(2/0.01) / (2 * 0.0001) = 26492.
  EXPECT_EQ(HoeffdingSampleSize(0.01, 0.99), 26492u);
  EXPECT_EQ(HoeffdingSampleSize(0.1, 0.9), 150u);
}

TEST(HoeffdingSampleSizeTest, SaturatesInsteadOfOverflowing) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(HoeffdingSampleSize(1e-300, 0.99), kMax);
  EXPECT_EQ(HoeffdingSampleSize(std::numeric_limits<double>::quiet_NaN(), 0.99),
            kMax);
}

TEST(StudentTBoundTest, BoundsBracketTheMean) {
  const std::vector<double> sample = {1, 2, 3, 4, 5, 6, 7, 8};
  const double ub = StudentTUpperBound(sample, 0.05);
  const double lb = StudentTLowerBound(sample, 0.05);
  const double mean = SampleMean(sample);
  EXPECT_GT(ub, mean);
  EXPECT_LT(lb, mean);
  EXPECT_NEAR(ub - mean, mean - lb, 1e-9);  // Symmetric intervals.
}

TEST(StudentTBoundTest, TinySamplesAreUnbounded) {
  EXPECT_TRUE(std::isinf(StudentTUpperBound({1.0}, 0.05)));
  EXPECT_TRUE(std::isinf(-StudentTLowerBound({}, 0.05)));
}

TEST(StudentTBoundTest, CoversTrueMeanAtStatedRate) {
  // Property check of the (1 - delta) coverage guarantee: repeatedly
  // sample Bernoulli(0.4) and verify the one-sided upper bound covers the
  // truth in roughly >= 95% of trials.
  Rng rng(12);
  const double delta = 0.05;
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> sample;
    for (int i = 0; i < 60; ++i) sample.push_back(rng.Bernoulli(0.4) ? 1.0 : 0.0);
    if (StudentTUpperBound(sample, delta) >= 0.4) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(trials * (1.0 - delta - 0.03)));
}

TEST(StudentTBoundTest, UpperBoundTightensWithN) {
  Rng rng(14);
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    if (i < 30) small.push_back(v);
    large.push_back(v);
  }
  EXPECT_LT(StudentTUpperBound(large, 0.05) - SampleMean(large),
            StudentTUpperBound(small, 0.05) - SampleMean(small));
}

}  // namespace
}  // namespace fairbench
