// ShardedScoringService router tests: the tentpole equivalence claim
// (sharded predictions byte-identical to a single service for the same
// request stream), routing/cache-key agreement, summed stats, dense
// tier-wide sequence stamps, and per-shard admission control.

#include "serve/sharded_scoring_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/generators/population.h"
#include "data/split.h"
#include "serve/scoring_service.h"

namespace fairbench {
namespace {

using serve::ClientStats;
using serve::ScoreRequest;
using serve::ScoreResponse;
using serve::ScoringService;
using serve::ScoringServiceOptions;
using serve::ShardedScoringService;
using serve::ShardedScoringServiceOptions;

struct Fixture {
  Dataset train;
  Dataset test;
};

Fixture MakeFixture() {
  Result<Dataset> data = GenerateGerman(400, /*seed=*/11);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  Rng rng(7);
  SplitIndices split = TrainTestSplit(data->num_rows(), 0.7, rng);
  Result<std::pair<Dataset, Dataset>> parts = MaterializeSplit(*data, split);
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
  return Fixture{std::move(parts->first), std::move(parts->second)};
}

ScoreRequest MakeRequest(const Fixture& fx, const std::string& id,
                         uint64_t seed = 0) {
  ScoreRequest request;
  request.approach_id = id;
  request.train = &fx.train;
  request.data = &fx.test;
  request.seed = seed;
  return request;
}

/// The canonical request stream used by the equivalence tests: four
/// approaches, two seeds each, every key visited twice (cold then warm).
std::vector<ScoreRequest> RequestStream(const Fixture& fx) {
  std::vector<ScoreRequest> stream;
  const std::vector<std::string> ids = {"lr", "hardt", "kamcal", "feld06"};
  for (int round = 0; round < 2; ++round) {
    for (const std::string& id : ids) {
      for (uint64_t seed : {21u, 22u}) {
        stream.push_back(MakeRequest(fx, id, seed));
      }
    }
  }
  return stream;
}

TEST(ShardedScoringServiceTest, PredictionsByteIdenticalToSingleService) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions base;
  base.run.seed = 5;

  ScoringService single(base);
  ShardedScoringServiceOptions sharded_options;
  sharded_options.shard = base;
  sharded_options.shards = 3;
  ShardedScoringService sharded(sharded_options);

  for (const ScoreRequest& request : RequestStream(fx)) {
    Result<ScoreResponse> a = single.Score(request);
    Result<ScoreResponse> b = sharded.Score(request);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->predictions, b->predictions)
        << request.approach_id << "/" << request.seed;
    EXPECT_EQ(a->cache_hit, b->cache_hit)
        << request.approach_id << "/" << request.seed;
  }
}

TEST(ShardedScoringServiceTest, RoutingAgreesWithShardLocalCaches) {
  const Fixture fx = MakeFixture();
  ShardedScoringServiceOptions options;
  options.shard.run.seed = 5;
  options.shards = 4;
  ShardedScoringService service(options);

  const std::vector<ScoreRequest> stream = RequestStream(fx);
  std::size_t distinct = 0;
  for (const ScoreRequest& request : stream) {
    // Routing is a pure function of the request key: repeated calls agree,
    // and the shard must stay within range.
    const std::size_t shard = service.ShardForRequest(request);
    EXPECT_LT(shard, service.shard_count());
    EXPECT_EQ(shard, service.ShardForRequest(request));
    ASSERT_TRUE(service.Score(request).ok());
  }
  distinct = 8;  // 4 approaches x 2 seeds; each visited twice.
  const ClientStats stats = service.Stats();
  EXPECT_EQ(stats.shards, 4u);
  // Every key fit exactly once tier-wide (the routing key IS the cache
  // key, so shards never duplicate a model), then hit on revisit.
  EXPECT_EQ(stats.cache.misses, distinct);
  EXPECT_EQ(stats.cache.hits, stream.size() - distinct);
  EXPECT_EQ(stats.cache.size, distinct);
}

TEST(ShardedScoringServiceTest, SequenceStampsAreDenseAcrossShards) {
  const Fixture fx = MakeFixture();
  ShardedScoringServiceOptions options;
  options.shards = 3;
  options.shard.max_in_flight = 64;
  ShardedScoringService service(options);

  // Requests land on different shards; the shared sequencer must still
  // hand out a dense duplicate-free stamp stream tier-wide.
  std::vector<uint64_t> sequences;
  for (const ScoreRequest& request : RequestStream(fx)) {
    Result<ScoreResponse> r = service.Score(request);
    ASSERT_TRUE(r.ok());
    sequences.push_back(r->sequence);
  }
  std::vector<uint64_t> sorted = sequences;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i + 1);
  }
}

TEST(ShardedScoringServiceTest, RequestIdsNeverCollideAcrossShards) {
  const Fixture fx = MakeFixture();
  ShardedScoringServiceOptions options;
  options.shard.run.seed = 5;
  options.shards = 4;
  ShardedScoringService service(options);

  std::vector<uint64_t> ids;
  for (const ScoreRequest& request : RequestStream(fx)) {
    Result<ScoreResponse> r = service.Score(request);
    ASSERT_TRUE(r.ok());
    EXPECT_NE(r->context.request_id, 0u);
    ids.push_back(r->context.request_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
      << "two shards minted the same request id";
}

TEST(ShardedScoringServiceTest, AdmissionControlIsPerShard) {
  const Fixture fx = MakeFixture();
  ShardedScoringServiceOptions options;
  options.shards = 2;
  options.shard.max_in_flight = 0;  // Every shard is always "full".
  ShardedScoringService service(options);

  Result<ScoreResponse> sync = service.Score(MakeRequest(fx, "lr"));
  EXPECT_EQ(sync.status().code(), StatusCode::kResourceExhausted);
  std::future<Result<ScoreResponse>> pending =
      service.ScoreAsync(MakeRequest(fx, "lr"));
  ASSERT_EQ(pending.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(pending.get().status().code(), StatusCode::kResourceExhausted);
}

TEST(ShardedScoringServiceTest, InvalidRequestsRejectedLikeSingleService) {
  const Fixture fx = MakeFixture();
  ShardedScoringService service;

  ScoreRequest request = MakeRequest(fx, "lr");
  request.train = nullptr;  // Unroutable: lands on shard 0's validation.
  EXPECT_EQ(service.Score(request).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Score(MakeRequest(fx, "no_such_approach")).status().code(),
            StatusCode::kNotFound);
}

TEST(ShardedScoringServiceTest, SwapLandsOnTheShardThatServesTheKey) {
  const Fixture fx = MakeFixture();
  ShardedScoringServiceOptions options;
  options.shard.run.seed = 5;
  options.shards = 4;
  ShardedScoringService service(options);

  serve::SwapRequest swap;
  swap.approach_id = "lr";
  swap.train = &fx.train;
  ASSERT_TRUE(service.SwapPipeline(swap).ok());
  EXPECT_EQ(service.Stats().swaps, 1u);

  // The swap installed a warm model for exactly the key a score computes,
  // on the shard that owns it: the very first score is a cache hit.
  Result<ScoreResponse> r = service.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(service.ShardForRequest(MakeRequest(fx, "lr")),
            service.ShardForSwap(swap));
}

TEST(ShardedScoringServiceTest, ClearCacheDropsEveryShard) {
  const Fixture fx = MakeFixture();
  ShardedScoringService service;
  for (const char* id : {"lr", "hardt", "kamcal"}) {
    ASSERT_TRUE(service.Score(MakeRequest(fx, id)).ok());
  }
  EXPECT_GT(service.Stats().cache.size, 0u);
  service.ClearCache();
  EXPECT_EQ(service.Stats().cache.size, 0u);
}

}  // namespace
}  // namespace fairbench
