// The prediction golden scenario, shared by tools/make_golden (which writes
// tests/golden/predictions.txt) and tests/core/prediction_golden_test.cc
// (which recomputes it and compares byte for byte).
//
// Every registry approach is fitted on each of the four generators at a
// small fixed size and seed. Per cell the text records an FNV-1a hash of
// Pipeline::Predict over the test split and one of the do(S)-flipped labels
// that MakeRowPredictor returns for every test row. A cell whose fit (or
// prediction) fails records the status code name instead.

#ifndef FAIRBENCH_TOOLS_PREDICTION_GOLDEN_H_
#define FAIRBENCH_TOOLS_PREDICTION_GOLDEN_H_

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "data/split.h"
#include "serve/artifact.h"

namespace fairbench {
namespace golden {

inline std::string HashLabels(const std::vector<int>& labels) {
  std::string bytes;
  bytes.reserve(labels.size());
  for (int y : labels) bytes.push_back(static_cast<char>('0' + y));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                Fnv1a64(bytes.data(), bytes.size()));
  return hex;
}

/// One "<dataset> <approach> predict=<hash|code> flipped=<hash|code>" line.
inline std::string PredictionCell(const std::string& dataset_name,
                                  const std::string& id, const Dataset& train,
                                  const Dataset& test,
                                  const FairContext& context) {
  const std::string prefix = dataset_name + " " + id + " ";
  Pipeline pipeline = MakePipeline(id).value();
  const Status fit = pipeline.Fit(train, context);
  if (!fit.ok()) {
    return prefix + "fit=" + StatusCodeName(fit.code()) + "\n";
  }
  const Result<std::vector<int>> pred = pipeline.Predict(test);
  const std::string predict = pred.ok() ? HashLabels(pred.value())
                                        : StatusCodeName(pred.status().code());

  std::string flipped;
  const RowPredictor predictor = pipeline.MakeRowPredictor(test);
  std::vector<int> labels;
  labels.reserve(test.num_rows());
  for (std::size_t r = 0; r < test.num_rows(); ++r) {
    Result<int> y = predictor(r, 1 - test.sensitive()[r]);
    if (!y.ok()) {
      flipped = StatusCodeName(y.status().code());
      break;
    }
    labels.push_back(y.value());
  }
  if (flipped.empty()) flipped = HashLabels(labels);
  return prefix + "predict=" + predict + " flipped=" + flipped + "\n";
}

/// The whole fixture: 4 generators x 19 approaches, 300 train / 120 test
/// rows each, seed 17.
inline std::string PredictionGoldenText() {
  struct Source {
    const char* name;
    Result<Dataset> (*generate)(std::size_t, uint64_t);
    PopulationConfig (*config)();
  };
  const Source sources[] = {{"adult", GenerateAdult, AdultConfig},
                            {"compas", GenerateCompas, CompasConfig},
                            {"german", GenerateGerman, GermanConfig},
                            {"credit", GenerateCredit, CreditConfig}};
  constexpr uint64_t kSeed = 17;
  std::string out;
  for (const Source& source : sources) {
    const Dataset data = source.generate(420, kSeed).value();
    Rng rng(kSeed);
    const auto parts =
        MaterializeSplit(data, TrainTestSplit(data.num_rows(), 300.0 / 420.0,
                                              rng))
            .value();
    const FairContext context = MakeContext(source.config(), kSeed);
    for (const std::string& id : AllApproachIds()) {
      out += PredictionCell(source.name, id, parts.first, parts.second,
                            context);
    }
  }
  return out;
}

}  // namespace golden
}  // namespace fairbench

#endif  // FAIRBENCH_TOOLS_PREDICTION_GOLDEN_H_
