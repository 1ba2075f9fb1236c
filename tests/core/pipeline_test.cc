#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "data/generators/population.h"
#include "data/split.h"
#include "fair/post/kamkar.h"
#include "fair/pre/kamcal.h"

namespace fairbench {
namespace {

TEST(PipelineTest, BaselineLrFitsAndPredicts) {
  const Dataset data = GenerateGerman(600, 1).value();
  Pipeline pipeline = PipelineBuilder().Build();
  FairContext ctx;
  ASSERT_TRUE(pipeline.Fit(data, ctx).ok());
  EXPECT_TRUE(pipeline.fitted());
  Result<std::vector<int>> pred = pipeline.Predict(data);
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->size(), data.num_rows());
  double correct = 0.0;
  for (std::size_t i = 0; i < pred->size(); ++i) {
    correct += pred.value()[i] == data.labels()[i];
  }
  EXPECT_GT(correct / static_cast<double>(pred->size()), 0.6);
}

TEST(PipelineTest, FailedRefitLeavesThePipelineUnfitted) {
  // A refit that fails must not leave the previous fit's model reachable
  // (e.g. behind an encoder re-fitted on the new data).
  const Dataset data = GenerateAdult(600, 1).value();
  const Dataset no_rows = data.SelectRows({}).value();
  const FairContext ctx = MakeContext(AdultConfig(), 1);
  for (const std::string& id : AllApproachIds()) {
    Pipeline pipeline = MakePipeline(id).value();
    ASSERT_TRUE(pipeline.Fit(data, ctx).ok()) << id;
    EXPECT_FALSE(pipeline.Fit(no_rows, ctx).ok()) << id;
    EXPECT_FALSE(pipeline.fitted()) << id;
    EXPECT_EQ(pipeline.Predict(data).status().code(),
              StatusCode::kFailedPrecondition)
        << id;
  }
}

TEST(PipelineTest, TimingBreakdownReflectsStages) {
  const Dataset data = GenerateGerman(800, 2).value();
  FairContext ctx;
  Pipeline with_pre =
      PipelineBuilder().Pre(std::make_unique<KamCal>()).Build();
  ASSERT_TRUE(with_pre.Fit(data, ctx).ok());
  EXPECT_GT(with_pre.timing().pre_seconds, 0.0);
  EXPECT_GT(with_pre.timing().train_seconds, 0.0);
  EXPECT_DOUBLE_EQ(with_pre.timing().post_seconds, 0.0);

  Pipeline with_post =
      PipelineBuilder().Post(std::make_unique<KamKar>()).Build();
  ASSERT_TRUE(with_post.Fit(data, ctx).ok());
  EXPECT_DOUBLE_EQ(with_post.timing().pre_seconds, 0.0);
  EXPECT_GT(with_post.timing().post_seconds, 0.0);
  EXPECT_NEAR(with_post.timing().Total(),
              with_post.timing().train_seconds +
                  with_post.timing().post_seconds,
              1e-12);
}

TEST(PipelineTest, RowPredictorHonorsSensitiveOverride) {
  const Dataset data = GenerateAdult(2000, 3).value();
  Pipeline pipeline =
      PipelineBuilder().IncludeSensitiveFeature(true).Build();
  FairContext ctx;
  ASSERT_TRUE(pipeline.Fit(data, ctx).ok());
  // With S as a feature, some rows near the boundary must flip.
  const RowPredictor predict = pipeline.MakeRowPredictor(data);
  std::size_t flips = 0;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    if (predict(r, 0).value() != predict(r, 1).value()) {
      ++flips;
    }
  }
  EXPECT_GT(flips, 0u);
}

TEST(PipelineTest, RowPredictorMatchesPredict) {
  const Dataset data = GenerateGerman(300, 4).value();
  Pipeline pipeline = PipelineBuilder().Build();
  FairContext ctx;
  ASSERT_TRUE(pipeline.Fit(data, ctx).ok());
  const std::vector<int> batch = pipeline.Predict(data).value();
  const RowPredictor row = pipeline.MakeRowPredictor(data);
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    EXPECT_EQ(row(r, data.sensitive()[r]).value(), batch[r]);
  }
}

TEST(PipelineTest, UnfittedUseIsError) {
  Pipeline pipeline = PipelineBuilder().Build();
  const Dataset data = GenerateGerman(50, 5).value();
  EXPECT_EQ(pipeline.Predict(data).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, PreProcessorFailurePropagates) {
  class FailingPre : public PreProcessor {
   public:
    std::string name() const override { return "boom"; }
    Result<Dataset> Repair(const Dataset&, const FairContext&) override {
      return Status::NoConvergence("synthetic failure");
    }
  };
  Pipeline pipeline =
      PipelineBuilder().Pre(std::make_unique<FailingPre>()).Build();
  FairContext ctx;
  const Dataset data = GenerateGerman(100, 6).value();
  EXPECT_EQ(pipeline.Fit(data, ctx).code(), StatusCode::kNoConvergence);
  EXPECT_FALSE(pipeline.fitted());
}

TEST(PipelineTest, TrainTestProtocolGeneralizes) {
  const Dataset data = GenerateAdult(5000, 7).value();
  Rng rng(8);
  const SplitIndices split = TrainTestSplit(data.num_rows(), 0.7, rng);
  auto parts = MaterializeSplit(data, split).value();
  Pipeline pipeline = PipelineBuilder().Build();
  FairContext ctx;
  ASSERT_TRUE(pipeline.Fit(parts.first, ctx).ok());
  const std::vector<int> pred = pipeline.Predict(parts.second).value();
  double correct = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    correct += pred[i] == parts.second.labels()[i];
  }
  EXPECT_GT(correct / static_cast<double>(pred.size()), 0.75);
}

}  // namespace
}  // namespace fairbench
