#include "stats/distributions.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fairbench {
namespace {

TEST(LogGammaTest, MatchesFactorials) {
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-10);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(IncompleteBetaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 1.0), 1.0);
}

TEST(IncompleteBetaTest, SymmetricCase) {
  // I_{0.5}(a, a) = 0.5.
  for (double a : {0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(a, a, 0.5), 0.5, 1e-9) << a;
  }
}

TEST(StudentTTest, CdfKnownValues) {
  // t distribution with df=1 is Cauchy: CDF(1) = 0.75.
  EXPECT_NEAR(StudentTCdf(1.0, 1.0), 0.75, 1e-8);
  EXPECT_NEAR(StudentTCdf(0.0, 7.0), 0.5, 1e-12);
  // Large df approaches the standard normal CDF.
  EXPECT_NEAR(StudentTCdf(1.96, 1e6), 0.5 * std::erfc(-1.96 / std::sqrt(2.0)),
              1e-4);
}

TEST(StudentTTest, QuantileKnownValues) {
  // Classic table values: t_{0.975, 10} = 2.228, t_{0.95, 5} = 2.015.
  EXPECT_NEAR(StudentTQuantile(0.975, 10), 2.22814, 1e-4);
  EXPECT_NEAR(StudentTQuantile(0.95, 5), 2.01505, 1e-4);
  EXPECT_NEAR(StudentTQuantile(0.5, 3), 0.0, 1e-10);
}

TEST(StudentTTest, QuantileInvertsCdf) {
  for (double df : {2.0, 5.0, 30.0}) {
    for (double p : {0.05, 0.25, 0.75, 0.99}) {
      EXPECT_NEAR(StudentTCdf(StudentTQuantile(p, df), df), p, 1e-9);
    }
  }
}

}  // namespace
}  // namespace fairbench
