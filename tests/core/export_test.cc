#include "core/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fairbench {
namespace {

ExperimentResult SmallResult() {
  const Dataset data = GenerateGerman(400, 1).value();
  ExperimentOptions options;
  options.compute_cd = false;
  return RunExperiment(data, MakeContext(GermanConfig(), 1), {"lr", "kamcal"},
                       options)
      .value();
}

std::size_t CountLines(const std::string& text) {
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  return lines;
}

TEST(ExportTest, ExperimentCsvHasOneRowPerApproachMetric) {
  const std::string csv = ExperimentResultToCsv(SmallResult());
  // Header + 2 approaches x 9 metrics.
  EXPECT_EQ(CountLines(csv), 1u + 2u * 9u);
  EXPECT_NE(csv.find("dataset,approach_id"), std::string::npos);
  EXPECT_NE(csv.find("German,lr,LR,baseline,1,accuracy"), std::string::npos);
  EXPECT_NE(csv.find(",kamcal,"), std::string::npos);
}

TEST(ExportTest, RuntimeCsvEmitsSweepPoints) {
  RuntimeCurve curve{"lr", "LR", "baseline", {}};
  RuntimePoint p;
  p.x = 1000;
  p.ok = true;
  p.total_seconds = 0.5;
  p.overhead_seconds = 0.1;
  curve.points = {p};
  const std::string csv = RuntimeCurvesToCsv({curve}, "n");
  EXPECT_NE(csv.find("approach_id,approach,stage,n,ok"), std::string::npos);
  EXPECT_NE(csv.find("lr,LR,baseline,1000,1,0.5"), std::string::npos);
}

TEST(ExportTest, StabilityCsvEmitsEverySample) {
  StabilityResult r{"lr", "LR", "baseline"};
  r.samples["accuracy"] = {0.8, 0.82};
  const std::string csv = StabilityToCsv({r});
  EXPECT_EQ(CountLines(csv), 3u);
  EXPECT_NE(csv.find("lr,LR,baseline,accuracy,1,0.82"), std::string::npos);
}

TEST(ExportTest, CrossValidationCsvSummaries) {
  const Dataset data = GenerateGerman(300, 2).value();
  const auto results =
      CrossValidateAll(data, MakeContext(GermanConfig(), 2), {"lr"}).value();
  const std::string csv = CrossValidationToCsv(results);
  EXPECT_NE(csv.find("approach_id,approach,metric,mean"), std::string::npos);
  EXPECT_NE(csv.find("lr,LR,accuracy,"), std::string::npos);
}

TEST(ExportTest, WriteTextFileRoundTrips) {
  const std::string path = testing::TempDir() + "/fairbench_export_test.csv";
  ASSERT_TRUE(WriteTextFile(path, "a,b\n1,2\n").ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "a,b\n1,2\n");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile("/nonexistent/dir/file.csv", "x").ok());
}

}  // namespace
}  // namespace fairbench
