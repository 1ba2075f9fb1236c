// Regenerates the checked-in golden fixtures under tests/golden/.
//
// experiment_german_s5.txt: the kernel-differential harness
// (tests/linalg/kernel_differential_test.cc) pins RunExperiment's formatted
// table byte-for-byte against this fixture so that a numerical regression
// in the optimized linalg kernels shows up as an end-to-end experiment
// diff, not just a micro-bench diff. The fixtures were first generated
// from the seed (pre-optimization) kernels; regenerate only when an
// intentional behavior change is being made, and say so in the commit
// message.
//
// predictions.txt: per-approach prediction hashes on all four generators
// (tools/prediction_golden.h), pinned by tests/core/prediction_golden_test.cc
// so that a refactor of the prediction path cannot change a single label.
//
// Usage: make_golden <output-dir>   (typically tests/golden)

#include <cstdio>
#include <fstream>
#include <string>

#include "core/experiment.h"
#include "prediction_golden.h"

namespace fairbench {
namespace {

// Mirrors the scenario in kernel_differential_test.cc: German 600 rows,
// one approach per stage, serial execution, the cheap CD settings the
// determinism tests use.
ExperimentOptions GoldenOptions() {
  ExperimentOptions options;
  options.run.seed = 42;
  options.run.threads = 1;
  options.cd.confidence = 0.9;
  options.cd.error_bound = 0.1;
  return options;
}

bool WriteFixture(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out << text;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

int Run(const std::string& out_dir) {
  const Dataset data = GenerateGerman(600, 5).value();
  const FairContext ctx = MakeContext(GermanConfig(), 5);
  const std::vector<std::string> ids = {"lr", "kamcal", "hardt",
                                        "zafar_dp_fair"};
  Result<ExperimentResult> result =
      RunExperiment(data, ctx, ids, GoldenOptions());
  if (!result.ok()) {
    std::fprintf(stderr, "RunExperiment failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const bool ok =
      WriteFixture(out_dir + "/experiment_german_s5.txt",
                   FormatExperimentTable(*result)) &&
      WriteFixture(out_dir + "/predictions.txt",
                   golden::PredictionGoldenText());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace fairbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  return fairbench::Run(argv[1]);
}
