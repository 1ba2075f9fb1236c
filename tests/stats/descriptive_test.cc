#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fairbench {
namespace {

TEST(DescriptiveTest, MeanVarianceStddev) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(SampleMean(v), 5.0);
  EXPECT_NEAR(SampleVariance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(SampleStddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(SampleMean({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleVariance({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleVariance({5.0}), 0.0);
}

TEST(QuantileTest, InterpolatesLinearly) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0 / 3.0), 2.0);
}

TEST(QuantileTest, ClampsOutOfRangeQ) {
  const std::vector<double> v = {1, 2, 3};
  EXPECT_DOUBLE_EQ(Quantile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 2.0), 3.0);
}

TEST(SummarizeTest, FiveNumberSummary) {
  const Summary s = Summarize({1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_EQ(s.count, 9u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.q1, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 7.0);
  EXPECT_DOUBLE_EQ(s.iqr, 4.0);
  EXPECT_EQ(s.num_outliers, 0u);
}

TEST(SummarizeTest, DetectsOutliers) {
  std::vector<double> v(20, 1.0);
  v.push_back(100.0);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.num_outliers, 1u);
}

TEST(SummarizeTest, EmptyInput) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

}  // namespace
}  // namespace fairbench
