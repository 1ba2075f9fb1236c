#include "metrics/causal_discrimination.h"

#include <gtest/gtest.h>

#include <limits>

#include "data/generators/population.h"

namespace fairbench {
namespace {

Dataset SmallDataset(std::size_t n) {
  return GenerateGerman(n, 7).value();
}

TEST(CdTest, SBlindPredictorScoresZero) {
  const Dataset ds = SmallDataset(200);
  RowPredictor blind = [&](std::size_t row, int s_override) -> Result<int> {
    return ds.labels()[row];  // Ignores S entirely.
  };
  EXPECT_DOUBLE_EQ(CausalDiscrimination(ds, blind).value(), 0.0);
}

TEST(CdTest, SDicatedPredictorScoresOne) {
  const Dataset ds = SmallDataset(200);
  RowPredictor s_only = [](std::size_t row, int s_override) -> Result<int> {
    return s_override;
  };
  EXPECT_DOUBLE_EQ(CausalDiscrimination(ds, s_only).value(), 1.0);
}

TEST(CdTest, PartialDependenceMeasuredExactly) {
  const Dataset ds = SmallDataset(500);
  // Predictor flips with S only for rows whose index is divisible by 5:
  // exact CD = 0.2 when the whole dataset is evaluated.
  RowPredictor partial = [](std::size_t row, int s_override) -> Result<int> {
    if (row % 5 == 0) return s_override;
    return 0;
  };
  CdOptions options;  // Hoeffding size >> 500, so all rows are used.
  EXPECT_DOUBLE_EQ(CausalDiscrimination(ds, partial, options).value(), 0.2);
}

TEST(CdTest, SamplingKicksInForLargeDatasets) {
  const Dataset ds = SmallDataset(2000);
  std::size_t calls = 0;
  RowPredictor counting = [&](std::size_t row, int s_override) -> Result<int> {
    ++calls;
    return 0;
  };
  CdOptions options;
  options.confidence = 0.9;
  options.error_bound = 0.1;  // Hoeffding n = 150 < 2000.
  ASSERT_TRUE(CausalDiscrimination(ds, counting, options).ok());
  EXPECT_EQ(calls, 2u * 150u);
}

TEST(CdTest, EstimateWithinErrorBound) {
  const Dataset ds = SmallDataset(5000);
  RowPredictor partial = [](std::size_t row, int s_override) -> Result<int> {
    if (row % 4 == 0) return s_override;  // True CD = 0.25.
    return 1;
  };
  CdOptions options;
  options.confidence = 0.99;
  options.error_bound = 0.05;
  const double estimate = CausalDiscrimination(ds, partial, options).value();
  EXPECT_NEAR(estimate, 0.25, 0.05);
}

TEST(CdTest, DeterministicForSeed) {
  const Dataset ds = SmallDataset(1000);
  RowPredictor partial = [](std::size_t row, int s_override) -> Result<int> {
    return (row % 3 == 0) ? s_override : 0;
  };
  CdOptions options;
  options.error_bound = 0.1;
  options.confidence = 0.9;
  EXPECT_DOUBLE_EQ(CausalDiscrimination(ds, partial, options).value(),
                   CausalDiscrimination(ds, partial, options).value());
}

TEST(CdTest, PredictorErrorsPropagate) {
  const Dataset ds = SmallDataset(50);
  RowPredictor failing = [](std::size_t, int) -> Result<int> {
    return Status::Internal("model exploded");
  };
  EXPECT_EQ(CausalDiscrimination(ds, failing).status().code(),
            StatusCode::kInternal);
}

TEST(CdTest, RejectsBadOptionsAndNullPredictor) {
  const Dataset ds = SmallDataset(10);
  EXPECT_FALSE(CausalDiscrimination(ds, nullptr).ok());
  RowPredictor ok = [](std::size_t, int) -> Result<int> { return 0; };
  CdOptions bad;
  bad.confidence = 1.5;
  EXPECT_FALSE(CausalDiscrimination(ds, ok, bad).ok());
  bad.confidence = 0.9;
  bad.error_bound = 0.0;
  EXPECT_FALSE(CausalDiscrimination(ds, ok, bad).ok());
  // Non-finite options: every comparison with NaN is false, so a NaN must
  // fail the checks rather than slip past them.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double error_bound : {nan, inf}) {
    bad.error_bound = error_bound;
    EXPECT_EQ(CausalDiscrimination(ds, ok, bad).status().code(),
              StatusCode::kInvalidArgument)
        << error_bound;
  }
  bad.error_bound = 0.01;
  bad.confidence = nan;
  EXPECT_EQ(CausalDiscrimination(ds, ok, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CdTest, OversizedSampleTargetUsesEveryRow) {
  // error_bound = 1e-300 squares to 0, so the Hoeffding size is +inf.
  const Dataset ds = SmallDataset(500);
  std::size_t calls = 0;
  RowPredictor partial = [&](std::size_t row, int s_override) -> Result<int> {
    ++calls;
    return row % 5 == 0 ? s_override : 0;
  };
  CdOptions options;
  options.error_bound = 1e-300;
  EXPECT_DOUBLE_EQ(CausalDiscrimination(ds, partial, options).value(), 0.2);
  EXPECT_EQ(calls, 2u * 500u);
}

TEST(CdTest, EmptyDatasetScoresZero) {
  Dataset empty;
  RowPredictor ok = [](std::size_t, int) -> Result<int> { return 0; };
  EXPECT_DOUBLE_EQ(CausalDiscrimination(empty, ok).value(), 0.0);
}

}  // namespace
}  // namespace fairbench
