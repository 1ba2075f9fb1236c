// Ablation: the accuracy/parity Pareto frontier of a plain LR's decision
// threshold on Adult — the cheapest fairness knob any deployment has, and
// the baseline every dedicated approach should beat (§5 tuning
// discussion).

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/table.h"
#include "data/split.h"
#include "metrics/threshold.h"

namespace fairbench {
namespace {

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintBanner("Ablation: LR threshold Pareto frontier (Adult)", args);

  const PopulationConfig config = AdultConfig();
  Result<Dataset> data = GeneratePopulation(
      config, bench::ScaledRows(config.default_rows, args.scale), args.seed);
  if (!data.ok()) return 1;
  Rng rng(args.seed);
  const SplitIndices split = TrainTestSplit(data->num_rows(), 0.7, rng);
  Result<std::pair<Dataset, Dataset>> parts =
      MaterializeSplit(data.value(), split);
  if (!parts.ok()) return 1;

  Result<Pipeline> lr = MakePipeline("lr");
  const FairContext context = MakeContext(config, args.seed);
  if (!lr.ok() || !lr->Fit(parts->first, context).ok()) return 1;

  Result<std::vector<double>> proba = lr->PredictProba(parts->second);
  if (!proba.ok()) return 1;
  const std::vector<int>& y = parts->second.labels();
  const std::vector<int>& s = parts->second.sensitive();

  Result<std::vector<OperatingPoint>> sweep =
      ThresholdSweep(proba.value(), y, s, 39);
  if (!sweep.ok()) return 1;
  const std::vector<OperatingPoint> frontier = ParetoFrontier(sweep.value());

  TextTable table;
  table.SetHeader({"threshold", "accuracy", "f1", "di*", "|tprb|"});
  for (const OperatingPoint& point : frontier) {
    table.AddRow({StrFormat("%.3f", point.threshold),
                  StrFormat("%.3f", point.correctness.accuracy),
                  StrFormat("%.3f", point.correctness.f1),
                  StrFormat("%.3f", point.di_star.score),
                  StrFormat("%.3f", std::fabs(point.tprb))});
  }
  std::printf("%s\n", table.ToString().c_str());

  Result<OperatingPoint> four_fifths =
      BestAccuracyUnderParity(sweep.value(), 0.8);
  if (four_fifths.ok()) {
    std::printf("best accuracy under the four-fifths rule (DI* >= 0.8): "
                "%.3f at threshold %.3f\n",
                four_fifths->correctness.accuracy, four_fifths->threshold);
  } else {
    std::printf("no threshold satisfies the four-fifths rule — a dedicated "
                "fair approach is required (compare fig10_adult).\n");
  }
  return 0;
}

}  // namespace
}  // namespace fairbench

int main(int argc, char** argv) { return fairbench::Run(argc, argv); }
