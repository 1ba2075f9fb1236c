// Integration tests for the prediction-time feature-transform path: FELD
// pipelines must push test tuples through the fitted repair, and the CD
// metric's do(S) interventions must route tuples through the *other*
// group's map (Pipeline::MakeRowPredictor transforms the data and its
// S-flipped twin once, when the predictor is made).

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace fairbench {
namespace {

TEST(FeldPipelineTest, FullRepairApproachesParityOnTestData) {
  const Dataset data = GenerateAdult(9000, 1).value();
  ExperimentOptions options;
  options.run.seed = 2;
  options.cd.confidence = 0.9;
  options.cd.error_bound = 0.1;
  const ExperimentResult result =
      RunExperiment(data, MakeContext(AdultConfig(), 1), {"lr", "feld10"},
                    options)
          .value();
  const ApproachResult* lr = result.Find("lr");
  const ApproachResult* feld = result.Find("feld10");
  ASSERT_TRUE(lr->ok && feld->ok) << feld->error;
  // Full repair moves DI* far above the baseline on *held-out* data —
  // only possible because the transform applies at prediction time.
  EXPECT_GT(feld->metrics.di_star.score, lr->metrics.di_star.score + 0.3);
  // And costs some accuracy (the paper's tradeoff).
  EXPECT_LT(feld->metrics.correctness.accuracy,
            lr->metrics.correctness.accuracy + 0.01);
}

TEST(FeldPipelineTest, CdInterventionsUseTheOtherGroupsMap) {
  const Dataset data = GenerateAdult(3000, 3).value();
  Result<Pipeline> pipeline = MakePipeline("feld10");
  ASSERT_TRUE(pipeline.ok());
  const FairContext ctx = MakeContext(AdultConfig(), 3);
  ASSERT_TRUE(pipeline->Fit(data, ctx).ok());
  // Flipping S changes which group quantile-map a tuple routes through;
  // with full repair both maps land on the same median distribution, so
  // predictions should flip for only a small fraction of tuples.
  const RowPredictor predict = pipeline->MakeRowPredictor(data);
  std::size_t flips = 0;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    const int s = data.sensitive()[r];
    if (predict(r, s).value() != predict(r, 1 - s).value()) {
      ++flips;
    }
  }
  EXPECT_LT(static_cast<double>(flips) / static_cast<double>(data.num_rows()),
            0.15);
}

TEST(FeldPipelineTest, RepeatedPredictionsAreStable) {
  const Dataset data = GenerateAdult(1000, 5).value();
  Result<Pipeline> pipeline = MakePipeline("feld06");
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(pipeline->Fit(data, MakeContext(AdultConfig(), 5)).ok());
  const std::vector<int> first = pipeline->Predict(data).value();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(pipeline->Predict(data).value(), first);
  }

  // A prediction depends only on the model and the rows, never on where
  // the rows live: eight same-size batches and then a larger one, all held
  // in one stack-local Dataset (one address), must each score exactly as a
  // freshly fitted pipeline scores its own copy of the batch.
  const Dataset train = GenerateAdult(3000, 7).value();
  const Dataset rows = GenerateAdult(8 * 128 + 256, 8).value();
  const FairContext ctx = MakeContext(AdultConfig(), 7);
  Pipeline scorer = MakePipeline("feld06").value();
  Pipeline fresh = MakePipeline("feld06").value();
  ASSERT_TRUE(scorer.Fit(train, ctx).ok());
  ASSERT_TRUE(fresh.Fit(train, ctx).ok());
  std::vector<Dataset> batches;
  std::size_t begin = 0;
  for (std::size_t size : {128, 128, 128, 128, 128, 128, 128, 128, 256}) {
    std::vector<std::size_t> indices(size);
    for (std::size_t i = 0; i < size; ++i) indices[i] = begin + i;
    begin += size;
    batches.push_back(rows.SelectRows(indices).value());
  }
  Dataset batch;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batch = batches[b];
    Result<std::vector<int>> got = scorer.Predict(batch);
    ASSERT_TRUE(got.ok()) << "batch " << b << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), fresh.Predict(batches[b]).value()) << "batch " << b;
  }
}

}  // namespace
}  // namespace fairbench
