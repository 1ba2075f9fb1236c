#include "metrics/threshold.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace fairbench {
namespace {

/// Calibration-style sample: privileged scores shifted upward.
void MakeSample(std::size_t n, uint64_t seed, std::vector<double>* proba,
                std::vector<int>* y, std::vector<int>* s) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int si = rng.Bernoulli(0.5) ? 1 : 0;
    const int yi = rng.Bernoulli(0.5) ? 1 : 0;
    proba->push_back(std::clamp(
        0.3 + 0.3 * yi + 0.15 * si + rng.Gaussian(0.0, 0.1), 0.001, 0.999));
    y->push_back(yi);
    s->push_back(si);
  }
}

TEST(ThresholdSweepTest, ProducesRequestedPoints) {
  std::vector<double> proba;
  std::vector<int> y;
  std::vector<int> s;
  MakeSample(2000, 1, &proba, &y, &s);
  Result<std::vector<OperatingPoint>> sweep = ThresholdSweep(proba, y, s, 9);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 9u);
  // Thresholds are increasing and interior.
  for (std::size_t k = 0; k < sweep->size(); ++k) {
    EXPECT_GT((*sweep)[k].threshold, 0.0);
    EXPECT_LT((*sweep)[k].threshold, 1.0);
    if (k > 0) {
      EXPECT_GT((*sweep)[k].threshold, (*sweep)[k - 1].threshold);
    }
  }
}

TEST(ThresholdSweepTest, RecallDecreasesWithThreshold) {
  std::vector<double> proba;
  std::vector<int> y;
  std::vector<int> s;
  MakeSample(3000, 2, &proba, &y, &s);
  const auto sweep = ThresholdSweep(proba, y, s, 15).value();
  for (std::size_t k = 1; k < sweep.size(); ++k) {
    EXPECT_LE(sweep[k].correctness.recall,
              sweep[k - 1].correctness.recall + 1e-12);
  }
}

TEST(ThresholdSweepTest, RejectsBadInput) {
  EXPECT_FALSE(ThresholdSweep({0.5}, {1, 0}, {1}).ok());
  EXPECT_FALSE(ThresholdSweep({0.5}, {1}, {1}, 0).ok());
}

TEST(ParetoFrontierTest, FrontierIsMonotoneTradeoff) {
  std::vector<double> proba;
  std::vector<int> y;
  std::vector<int> s;
  MakeSample(4000, 3, &proba, &y, &s);
  const auto sweep = ThresholdSweep(proba, y, s, 25).value();
  const auto frontier = ParetoFrontier(sweep);
  ASSERT_GE(frontier.size(), 2u);
  // Along the frontier, rising accuracy must trade falling DI*.
  for (std::size_t k = 1; k < frontier.size(); ++k) {
    EXPECT_GE(frontier[k].correctness.accuracy,
              frontier[k - 1].correctness.accuracy);
    EXPECT_LE(frontier[k].di_star.score,
              frontier[k - 1].di_star.score + 1e-12);
  }
}

TEST(ParetoFrontierTest, DominatedPointsAreRemoved) {
  OperatingPoint a;
  a.correctness.accuracy = 0.9;
  a.di_star.score = 0.9;
  OperatingPoint dominated;
  dominated.correctness.accuracy = 0.8;
  dominated.di_star.score = 0.8;
  OperatingPoint other;
  other.correctness.accuracy = 0.95;
  other.di_star.score = 0.5;
  const auto frontier = ParetoFrontier({a, dominated, other});
  EXPECT_EQ(frontier.size(), 2u);
  for (const OperatingPoint& p : frontier) {
    EXPECT_NE(p.correctness.accuracy, 0.8);
  }
}

TEST(BestAccuracyUnderParityTest, EnforcesTheFourFifthsRule) {
  std::vector<double> proba;
  std::vector<int> y;
  std::vector<int> s;
  MakeSample(4000, 4, &proba, &y, &s);
  const auto sweep = ThresholdSweep(proba, y, s, 25).value();
  Result<OperatingPoint> best = BestAccuracyUnderParity(sweep, 0.8);
  if (best.ok()) {
    EXPECT_GE(best->di_star.score, 0.8);
    // No qualifying point is more accurate.
    for (const OperatingPoint& p : sweep) {
      if (p.di_star.score >= 0.8) {
        EXPECT_LE(p.correctness.accuracy, best->correctness.accuracy + 1e-12);
      }
    }
  }
  // An impossible floor yields NotFound.
  EXPECT_EQ(BestAccuracyUnderParity(sweep, 1.01).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace fairbench
