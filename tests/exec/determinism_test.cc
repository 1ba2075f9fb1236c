// The central contract of src/exec: results are a function of (inputs,
// seed) only — never of the worker count. Each test renders the human
// output of a driver at threads=1 (the exact serial path) and at
// threads=8 (oversubscribed on small machines, which maximises
// interleaving) and requires byte identity.

#include <gtest/gtest.h>

#include "core/crossval.h"
#include "core/experiment.h"
#include "core/stability.h"

namespace fairbench {
namespace {

ExperimentOptions FastOptions(std::size_t threads) {
  ExperimentOptions options;
  options.run.seed = 42;
  options.run.threads = threads;
  options.cd.confidence = 0.9;
  options.cd.error_bound = 0.1;
  return options;
}

TEST(DeterminismTest, ExperimentTableIsByteIdenticalAcrossThreadCounts) {
  const Dataset data = GenerateGerman(600, 5).value();
  const FairContext ctx = MakeContext(GermanConfig(), 5);
  const std::vector<std::string> ids = {"lr", "kamcal", "hardt",
                                        "zafar_dp_fair"};

  Result<ExperimentResult> serial =
      RunExperiment(data, ctx, ids, FastOptions(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<ExperimentResult> parallel =
      RunExperiment(data, ctx, ids, FastOptions(8));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(FormatExperimentTable(*serial), FormatExperimentTable(*parallel));
}

TEST(DeterminismTest, CdInnerLoopIsThreadCountInvariant) {
  // feld06 probes a feature-transforming pipeline and hardt an
  // S-dependent post-processor, both from 8 threads at once with no
  // warm-up probe (CI re-runs this under TSan).
  const Dataset data = GenerateGerman(500, 7).value();
  const FairContext ctx = MakeContext(GermanConfig(), 7);
  const std::vector<std::string> ids = {"lr", "feld06", "hardt"};
  auto run = [&](std::size_t cd_threads) {
    ExperimentOptions options = FastOptions(1);
    options.cd.threads = cd_threads;
    return RunExperiment(data, ctx, ids, options);
  };
  Result<ExperimentResult> serial = run(1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<ExperimentResult> parallel = run(8);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(serial->approaches[i].ok) << serial->approaches[i].error;
    ASSERT_TRUE(parallel->approaches[i].ok) << parallel->approaches[i].error;
    EXPECT_DOUBLE_EQ(serial->approaches[i].metrics.cd,
                     parallel->approaches[i].metrics.cd)
        << ids[i];
  }
}

TEST(DeterminismTest, CrossValidationIsThreadCountInvariant) {
  const Dataset data = GenerateGerman(600, 11).value();
  const FairContext ctx = MakeContext(GermanConfig(), 11);
  auto run = [&](std::size_t threads) {
    CrossValidationOptions options;
    options.folds = 3;
    options.run.threads = threads;
    return CrossValidateAll(data, ctx, {"lr", "kamcal"}, options);
  };
  Result<std::vector<CrossValidationResult>> serial = run(1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<std::vector<CrossValidationResult>> parallel = run(8);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  const std::vector<std::string> metrics = {"accuracy", "f1", "di"};
  EXPECT_EQ(FormatCrossValidationTable(*serial, metrics),
            FormatCrossValidationTable(*parallel, metrics));
}

TEST(DeterminismTest, StabilityRunsAreThreadCountInvariant) {
  const Dataset data = GenerateGerman(500, 13).value();
  const FairContext ctx = MakeContext(GermanConfig(), 13);
  auto run = [&](std::size_t threads) {
    StabilityOptions options;
    options.runs = 3;
    options.run.seed = 42;
    options.run.threads = threads;
    options.compute_cd = false;
    return RunStability(data, ctx, {"lr"}, options);
  };
  Result<std::vector<StabilityResult>> serial = run(1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<std::vector<StabilityResult>> parallel = run(8);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  const std::vector<std::string> metrics = {"accuracy", "di"};
  EXPECT_EQ(FormatStabilityTable(*serial, metrics),
            FormatStabilityTable(*parallel, metrics));
}

}  // namespace
}  // namespace fairbench
