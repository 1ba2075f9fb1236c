// SwapPipeline hot-swap tests: artifact and refit installs, approach
// validation, and the core claim — a swap storm under concurrent load
// fails nothing, and a replaced model stays valid for the requests that
// still hold it (tools/ci.sh replays the storm under TSan and ASan).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/registry.h"
#include "data/generators/population.h"
#include "data/split.h"
#include "serve/pipeline_artifact.h"
#include "serve/scoring_service.h"

namespace fairbench {
namespace {

using serve::ScoreRequest;
using serve::ScoreResponse;
using serve::ScoringService;
using serve::ScoringServiceOptions;
using serve::SwapRequest;

struct Fixture {
  Dataset train;
  Dataset test;
  Dataset retrain;  ///< A different training set (the "new model" data).
};

Fixture MakeFixture() {
  Result<Dataset> data = GenerateGerman(400, /*seed=*/11);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  Rng rng(7);
  SplitIndices split = TrainTestSplit(data->num_rows(), 0.7, rng);
  Result<std::pair<Dataset, Dataset>> parts = MaterializeSplit(*data, split);
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
  Result<Dataset> fresh = GenerateGerman(400, /*seed=*/12);
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  return Fixture{std::move(parts->first), std::move(parts->second),
                 std::move(*fresh)};
}

ScoreRequest MakeRequest(const Fixture& fx, const std::string& id) {
  ScoreRequest request;
  request.approach_id = id;
  request.train = &fx.train;
  request.data = &fx.test;
  return request;
}

TEST(HotSwapTest, RefitSwapInstallsAWarmModel) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.run.seed = 5;
  ScoringService service(options);

  SwapRequest swap;
  swap.approach_id = "lr";
  swap.train = &fx.train;
  ASSERT_TRUE(service.SwapPipeline(swap).ok());
  EXPECT_EQ(service.Stats().swaps, 1u);

  // First score after the swap hits the installed model and matches a
  // direct fit with the same resolved seed.
  Result<ScoreResponse> r = service.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->cache_hit);
  Result<Pipeline> direct = MakeServingPipeline("lr");
  ASSERT_TRUE(direct.ok());
  const FairContext context{{}, {}, /*seed=*/5};
  ASSERT_TRUE(direct->Fit(fx.train, context).ok());
  EXPECT_EQ(r->predictions, direct->Predict(fx.test).value());
}

TEST(HotSwapTest, ArtifactSwapReplacesTheLiveModel) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.run.seed = 5;
  ScoringService service(options);

  // Cold fit on fx.train = model A.
  Result<ScoreResponse> before = service.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(before.ok());

  // Model B: same approach, trained elsewhere, shipped as an artifact and
  // installed under model A's cache key.
  Result<Pipeline> retrained = MakePipeline("lr");
  ASSERT_TRUE(retrained.ok());
  const FairContext context{{}, {}, /*seed=*/5};
  ASSERT_TRUE(retrained->Fit(fx.retrain, context).ok());
  Result<std::string> artifact = SerializePipeline(*retrained, "lr");
  ASSERT_TRUE(artifact.ok());

  SwapRequest swap;
  swap.approach_id = "lr";
  swap.train = &fx.train;  // Keyed to the *serving* train set.
  swap.artifact = *artifact;
  ASSERT_TRUE(service.SwapPipeline(swap).ok());

  Result<ScoreResponse> after = service.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->cache_hit) << "swap did not land on the warm path";
  EXPECT_EQ(after->predictions, retrained->Predict(fx.test).value());
  EXPECT_NE(after->predictions, before->predictions)
      << "fixture too easy: both models agree everywhere, test proves "
         "nothing";
}

TEST(HotSwapTest, ArtifactApproachMismatchIsRejected) {
  const Fixture fx = MakeFixture();
  ScoringService service;

  Result<Pipeline> lr = MakePipeline("lr");
  ASSERT_TRUE(lr.ok());
  const FairContext context{{}, {}, /*seed=*/5};
  ASSERT_TRUE(lr->Fit(fx.train, context).ok());
  Result<std::string> artifact = SerializePipeline(*lr, "lr");
  ASSERT_TRUE(artifact.ok());

  SwapRequest swap;
  swap.approach_id = "hardt";  // Lies about what the artifact holds.
  swap.train = &fx.train;
  swap.artifact = *artifact;
  EXPECT_EQ(service.SwapPipeline(swap).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Stats().swaps, 0u);

  swap.approach_id = "lr";
  swap.train = nullptr;
  EXPECT_EQ(service.SwapPipeline(swap).code(), StatusCode::kInvalidArgument);
}

/// The swap contract under pressure: reader threads score a warm key in a
/// tight loop while the main thread refit-swaps that same key repeatedly.
/// Every score must succeed (no failure window), and each reader must be
/// able to finish on a model that a swap has since replaced.
TEST(HotSwapTest, SwapStormUnderLoadFailsNothing) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.run.seed = 5;
  options.max_in_flight = 256;
  ScoringService service(options);

  // Warm the key so readers start on the cache-hit path.
  ASSERT_TRUE(service.Score(MakeRequest(fx, "lr")).ok());

  constexpr int kReaders = 4;
  constexpr int kScoresPerReader = 40;
  constexpr int kSwaps = 25;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> ok_scores{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&]() {
      for (int i = 0; i < kScoresPerReader; ++i) {
        Result<ScoreResponse> r = service.Score(MakeRequest(fx, "lr"));
        if (r.ok() && r->predictions.size() == fx.test.num_rows()) {
          ok_scores.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  SwapRequest swap;
  swap.approach_id = "lr";
  swap.train = &fx.train;
  for (int s = 0; s < kSwaps; ++s) {
    ASSERT_TRUE(service.SwapPipeline(swap).ok());
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ok_scores.load(),
            static_cast<uint64_t>(kReaders) * kScoresPerReader);
  EXPECT_EQ(service.Stats().swaps, static_cast<uint64_t>(kSwaps));
}

}  // namespace
}  // namespace fairbench
