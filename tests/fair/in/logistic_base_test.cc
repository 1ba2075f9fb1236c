#include "fair/in/logistic_base.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "data/generators/population.h"
#include "fair/in/celis.h"
#include "fair/in/thomas.h"
#include "fair/in/zafar.h"
#include "fair/in/zhale.h"

namespace fairbench {
namespace {

TEST(AccumulateLogLossTest, MatchesHandComputedLoss) {
  // One row, x = [2], theta = [0.5, 1.0] -> z = 2.5.
  Matrix x(1, 1, 2.0);
  const Vector theta = {0.5, 1.0};
  Vector grad(2, 0.0);
  const double loss = AccumulateLogLoss(x, {1}, {1.0}, theta, &grad);
  const double z = 2.5;
  EXPECT_NEAR(loss, std::log(1.0 + std::exp(-z)), 1e-12);
  // Gradient: (p - y) * [1, x].
  const double p = 1.0 / (1.0 + std::exp(-z));
  EXPECT_NEAR(grad[0], p - 1.0, 1e-12);
  EXPECT_NEAR(grad[1], (p - 1.0) * 2.0, 1e-12);
}

TEST(AccumulateLogLossTest, WeightsScaleContributions) {
  Matrix x(1, 1, 1.0);
  const Vector theta = {0.0, 0.0};
  Vector g1(2, 0.0);
  Vector g3(2, 0.0);
  const double l1 = AccumulateLogLoss(x, {0}, {1.0}, theta, &g1);
  const double l3 = AccumulateLogLoss(x, {0}, {3.0}, theta, &g3);
  EXPECT_NEAR(l3, 3.0 * l1, 1e-12);
  EXPECT_NEAR(g3[1], 3.0 * g1[1], 1e-12);
}

TEST(AccumulateLogLossTest, StableAtExtremeLogits) {
  Matrix x(2, 1, 0.0);
  x(0, 0) = 1000.0;
  x(1, 0) = -1000.0;
  const Vector theta = {0.0, 1.0};
  Vector grad(2, 0.0);
  const double loss = AccumulateLogLoss(x, {0, 1}, {1.0, 1.0}, theta, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  // Both rows are maximally wrong: loss ~ |z| each.
  EXPECT_NEAR(loss, 2000.0, 1.0);
}

TEST(AccumulateLogLossTest, GradientMatchesFiniteDifferences) {
  Matrix x = {{0.5, -1.2}, {2.0, 0.3}, {-0.7, 1.1}};
  const std::vector<int> y = {1, 0, 1};
  const Vector w = {1.0, 2.0, 0.5};
  const Vector theta = {0.1, -0.4, 0.8};
  Vector grad(3, 0.0);
  AccumulateLogLoss(x, y, w, theta, &grad);
  const double eps = 1e-6;
  for (std::size_t j = 0; j < 3; ++j) {
    Vector lo = theta;
    Vector hi = theta;
    lo[j] -= eps;
    hi[j] += eps;
    Vector dummy(3, 0.0);
    const double f_lo = AccumulateLogLoss(x, y, w, lo, &dummy);
    std::fill(dummy.begin(), dummy.end(), 0.0);
    const double f_hi = AccumulateLogLoss(x, y, w, hi, &dummy);
    EXPECT_NEAR(grad[j], (f_hi - f_lo) / (2.0 * eps), 1e-5) << j;
  }
}

TEST(DecisionValuesTest, ComputesAffineScores) {
  Matrix x = {{1.0, 2.0}, {0.0, -1.0}};
  const Vector theta = {0.5, 2.0, -1.0};
  const Vector z = DecisionValues(x, theta);
  EXPECT_DOUBLE_EQ(z[0], 0.5 + 2.0 - 2.0);
  EXPECT_DOUBLE_EQ(z[1], 0.5 + 1.0);
}

TEST(EncodedLogisticInProcessorTest, EmptyDataRejected) {
  // Every encoded-logistic approach refuses to train on zero rows, both a
  // bare Dataset and a zero-row slice with a real schema.
  const Dataset no_rows = GenerateAdult(50, 1).value().SelectRows({}).value();
  const Dataset bare;
  std::vector<std::unique_ptr<EncodedLogisticInProcessor>> approaches;
  approaches.push_back(std::make_unique<Zafar>());
  approaches.push_back(std::make_unique<ZhaLe>());
  approaches.push_back(std::make_unique<Celis>());
  approaches.push_back(std::make_unique<Thomas>());
  FairContext ctx;
  for (const auto& approach : approaches) {
    for (const Dataset* empty : {&no_rows, &bare}) {
      const Status st = approach->Fit(*empty, ctx);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << approach->name() << ": " << st.ToString();
    }
  }
}

}  // namespace
}  // namespace fairbench
