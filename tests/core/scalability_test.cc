#include "core/scalability.h"

#include <gtest/gtest.h>

namespace fairbench {
namespace {

TEST(ScalabilityTest, SizeSweepProducesPointsForEveryApproach) {
  const std::vector<std::string> ids = {"lr", "kamcal", "hardt"};
  Result<std::vector<RuntimeCurve>> curves =
      MeasureRuntimeVsSize(GermanConfig(), {300, 600}, ids);
  ASSERT_TRUE(curves.ok()) << curves.status().ToString();
  ASSERT_EQ(curves->size(), 3u);
  for (const RuntimeCurve& c : curves.value()) {
    ASSERT_EQ(c.points.size(), 2u);
    EXPECT_EQ(c.points[0].x, 300u);
    EXPECT_EQ(c.points[1].x, 600u);
    for (const RuntimePoint& p : c.points) {
      EXPECT_TRUE(p.ok) << c.id << ": " << p.error;
      EXPECT_GE(p.total_seconds, 0.0);
    }
  }
}

TEST(ScalabilityTest, AttributeSweepSubsetsColumns) {
  const std::vector<std::string> ids = {"lr", "feld10"};
  Result<std::vector<RuntimeCurve>> curves = MeasureRuntimeVsAttributes(
      CreditConfig(), 800, {2, 6, 10}, ids);
  ASSERT_TRUE(curves.ok()) << curves.status().ToString();
  for (const RuntimeCurve& c : curves.value()) {
    ASSERT_EQ(c.points.size(), 3u);
    for (const RuntimePoint& p : c.points) {
      EXPECT_TRUE(p.ok) << c.id << " at " << p.x << ": " << p.error;
    }
  }
}

TEST(ScalabilityTest, CalmonFailsOnWideCreditPointOnly) {
  // The signature Fig 11(d) behavior: CALMON succeeds at narrow widths and
  // reports a failure at the full 26 attributes.
  Result<std::vector<RuntimeCurve>> curves = MeasureRuntimeVsAttributes(
      CreditConfig(), 1000, {10, 26}, {"calmon"});
  ASSERT_TRUE(curves.ok());
  const RuntimeCurve& calmon = curves->front();
  EXPECT_TRUE(calmon.points[0].ok);
  EXPECT_FALSE(calmon.points[1].ok);
  EXPECT_NE(calmon.points[1].error.find("NoConvergence"), std::string::npos);
}

TEST(ScalabilityTest, AttributeSweepRejectsTooFewAttrs) {
  EXPECT_FALSE(
      MeasureRuntimeVsAttributes(CreditConfig(), 100, {1}, {"lr"}).ok());
}

TEST(ScalabilityTest, FormatTableRendersNaForFailures) {
  RuntimeCurve curve{"x", "X", "pre", {}};
  RuntimePoint good;
  good.x = 10;
  good.ok = true;
  good.overhead_seconds = 0.5;
  RuntimePoint bad;
  bad.x = 20;
  bad.ok = false;
  curve.points = {good, bad};
  const std::string table = FormatRuntimeTable({curve}, "n");
  EXPECT_NE(table.find("0.500s"), std::string::npos);
  EXPECT_NE(table.find("n/a"), std::string::npos);
  EXPECT_NE(table.find("n=10"), std::string::npos);
}

}  // namespace
}  // namespace fairbench
