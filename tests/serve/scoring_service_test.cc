// ScoringService contract tests: cache hit/miss semantics, single-flight
// fitting under concurrency (the TSan target in tools/ci.sh), deadlines,
// and the reject-don't-block backpressure contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "data/generators/population.h"
#include "data/split.h"
#include "serve/scoring_service.h"

namespace fairbench {
namespace {

using serve::CacheStats;
using serve::ScoreRequest;
using serve::ScoreResponse;
using serve::ScoringService;
using serve::ScoringServiceOptions;

struct Fixture {
  Dataset train;
  Dataset test;
};

Fixture MakeFixture() {
  Result<Dataset> data = GenerateGerman(400, /*seed=*/11);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  Rng rng(7);
  SplitIndices split = TrainTestSplit(data->num_rows(), 0.7, rng);
  Result<std::pair<Dataset, Dataset>> parts =
      MaterializeSplit(*data, split);
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
  return Fixture{std::move(parts->first), std::move(parts->second)};
}

ScoreRequest MakeRequest(const Fixture& fx, const std::string& id) {
  ScoreRequest request;
  request.approach_id = id;
  request.train = &fx.train;
  request.data = &fx.test;
  return request;
}

TEST(ScoringServiceTest, ColdThenWarmMatchesDirectFit) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.run.seed = 5;
  ScoringService service(options);

  Result<ScoreResponse> cold = service.Score(MakeRequest(fx, "hardt"));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache_hit);
  EXPECT_GT(cold->fit_seconds, 0.0);
  EXPECT_EQ(cold->predictions.size(), fx.test.num_rows());

  Result<ScoreResponse> warm = service.Score(MakeRequest(fx, "hardt"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->fit_seconds, 0.0);
  EXPECT_EQ(warm->predictions, cold->predictions);

  // The service must reproduce a plain fit-then-predict exactly.
  Result<Pipeline> direct = MakePipeline("hardt");
  ASSERT_TRUE(direct.ok());
  const FairContext context{{}, {}, /*seed=*/5};
  ASSERT_TRUE(direct->Fit(fx.train, context).ok());
  Result<std::vector<int>> expected = direct->Predict(fx.test);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(cold->predictions, *expected);

  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

/// A request's predictions depend only on the model and its rows, never on
/// the address of the Dataset: eight same-size batches and then a larger
/// one, all sent from one stack-local Dataset, must each match a freshly
/// fitted pipeline scoring its own copy of the batch.
TEST(ScoringServiceTest, ReusedDatasetAddressScoresEachBatchAfresh) {
  const Dataset train = GenerateAdult(3000, 7).value();
  const Dataset rows = GenerateAdult(8 * 128 + 256, 8).value();
  ScoringServiceOptions options;
  options.run.seed = 5;
  ScoringService service(options);
  Pipeline fresh = MakeServingPipeline("feld06").value();
  ASSERT_TRUE(fresh.Fit(train, FairContext{{}, {}, /*seed=*/5}).ok());

  std::vector<Dataset> batches;
  std::size_t begin = 0;
  for (std::size_t size : {128, 128, 128, 128, 128, 128, 128, 128, 256}) {
    std::vector<std::size_t> indices(size);
    for (std::size_t i = 0; i < size; ++i) indices[i] = begin + i;
    begin += size;
    batches.push_back(rows.SelectRows(indices).value());
  }
  Dataset batch;
  ScoreRequest request;
  request.approach_id = "feld06";
  request.train = &train;
  request.data = &batch;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batch = batches[b];
    Result<ScoreResponse> got = service.Score(request);
    ASSERT_TRUE(got.ok()) << "batch " << b << ": " << got.status().ToString();
    EXPECT_EQ(got->predictions, fresh.Predict(batches[b]).value())
        << "batch " << b;
  }
}

TEST(ScoringServiceTest, SeedIsPartOfTheCacheKey) {
  const Fixture fx = MakeFixture();
  ScoringService service;

  ScoreRequest request = MakeRequest(fx, "lr");
  request.seed = 21;
  ASSERT_TRUE(service.Score(request).ok());
  request.seed = 22;
  Result<ScoreResponse> other = service.Score(request);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->cache_hit);
  EXPECT_EQ(service.cache_stats().misses, 2u);
  EXPECT_EQ(service.cache_stats().size, 2u);
}

TEST(ScoringServiceTest, RequestDefaultsResolveSeedIntoTheCacheKey) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.run.seed = 5;
  options.defaults.seed = 21;  // Applies when the request leaves seed 0.
  ScoringService service(options);

  ASSERT_TRUE(service.Score(MakeRequest(fx, "lr")).ok());
  // An explicit seed equal to the default lands on the same cache key:
  // the default was folded in exactly once, at admission.
  ScoreRequest request = MakeRequest(fx, "lr");
  request.seed = 21;
  Result<ScoreResponse> same = service.Score(request);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->cache_hit);
  // The run-seed fallback key was never used.
  request.seed = 5;
  Result<ScoreResponse> other = service.Score(request);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->cache_hit);
}

TEST(ScoringServiceTest, RequestDefaultsApplyDeadlineWhenRequestHasNone) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.defaults.deadline_seconds = 1e-9;  // Expires at admission.
  ScoringService service(options);

  Result<ScoreResponse> defaulted = service.Score(MakeRequest(fx, "lr"));
  EXPECT_EQ(defaulted.status().code(), StatusCode::kDeadlineExceeded);

  // An explicit per-request deadline overrides the default.
  ScoreRequest request = MakeRequest(fx, "lr");
  request.deadline_seconds = 300.0;
  EXPECT_TRUE(service.Score(request).ok());
}

TEST(ScoringServiceTest, ServingColdFitsUseTheSparseZafarSolver) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.run.seed = 5;
  ScoringService service(options);

  Result<ScoreResponse> served = service.Score(MakeRequest(fx, "zafar_dp_fair"));
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // The serving pipeline (CSR + CG-Newton Zafar) is what got fit.
  Result<Pipeline> sparse = MakeServingPipeline("zafar_dp_fair");
  ASSERT_TRUE(sparse.ok());
  const FairContext context{{}, {}, /*seed=*/5};
  ASSERT_TRUE(sparse->Fit(fx.train, context).ok());
  EXPECT_EQ(served->predictions, sparse->Predict(fx.test).value());
}

TEST(ScoringServiceTest, LruEvictsColdestEntry) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.cache_capacity = 2;
  ScoringService service(options);

  ASSERT_TRUE(service.Score(MakeRequest(fx, "lr")).ok());
  ASSERT_TRUE(service.Score(MakeRequest(fx, "hardt")).ok());
  // Touch "lr" so "hardt" is the LRU victim of the third insert.
  ASSERT_TRUE(service.Score(MakeRequest(fx, "lr")).ok());
  ASSERT_TRUE(service.Score(MakeRequest(fx, "kamcal")).ok());
  EXPECT_EQ(service.cache_stats().size, 2u);

  Result<ScoreResponse> lr = service.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(lr.ok());
  EXPECT_TRUE(lr->cache_hit) << "recently-used entry was evicted";
  Result<ScoreResponse> hardt = service.Score(MakeRequest(fx, "hardt"));
  ASSERT_TRUE(hardt.ok());
  EXPECT_FALSE(hardt->cache_hit) << "LRU victim survived eviction";
}

TEST(ScoringServiceTest, UnknownApproachAndNullDatasetsAreRejected) {
  const Fixture fx = MakeFixture();
  ScoringService service;

  Result<ScoreResponse> unknown =
      service.Score(MakeRequest(fx, "no_such_approach"));
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  ScoreRequest request = MakeRequest(fx, "lr");
  request.train = nullptr;
  EXPECT_EQ(service.Score(request).status().code(),
            StatusCode::kInvalidArgument);
  request = MakeRequest(fx, "lr");
  request.data = nullptr;
  EXPECT_EQ(service.Score(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScoringServiceTest, ImpossibleDeadlineYieldsDeadlineExceeded) {
  const Fixture fx = MakeFixture();
  ScoringService service;

  ScoreRequest request = MakeRequest(fx, "lr");
  request.deadline_seconds = 1e-9;  // Expires before the fit can finish.
  Result<ScoreResponse> response = service.Score(request);
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);

  // A generous deadline on the same key succeeds (and no half-broken
  // state survived the miss).
  request.deadline_seconds = 300.0;
  Result<ScoreResponse> retry = service.Score(request);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(ScoringServiceTest, FailedFitIsNotCachedAndIsRetried) {
  const Fixture fx = MakeFixture();
  Result<Dataset> empty = fx.train.SelectRows({});
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ScoreRequest request = MakeRequest(fx, "zafar_dp_fair");
  request.train = &*empty;
  ScoringService service;

  // Each request refits the key: a failed fit leaves no cache entry behind.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(service.Score(request).status().code(),
              StatusCode::kInvalidArgument);
  }
  CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 0u);

  // Concurrent requests on the failing key, whether they fit it or wait
  // on another request's fit, all see the error.
  constexpr int kThreads = 4;
  std::vector<StatusCode> codes(kThreads, StatusCode::kOk);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t]() { codes[t] = service.Score(request).status().code(); });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(codes[t], StatusCode::kInvalidArgument) << "thread " << t;
  }
  EXPECT_EQ(service.cache_stats().size, 0u);
}

TEST(ScoringServiceTest, FullServiceRejectsInsteadOfBlocking) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.max_in_flight = 0;  // Every admission check sees a full service.
  ScoringService service(options);

  Result<ScoreResponse> sync = service.Score(MakeRequest(fx, "lr"));
  EXPECT_EQ(sync.status().code(), StatusCode::kResourceExhausted);

  // The async path must resolve immediately with the same status, not
  // enqueue behind the cap.
  std::future<Result<ScoreResponse>> pending =
      service.ScoreAsync(MakeRequest(fx, "lr"));
  ASSERT_EQ(pending.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(pending.get().status().code(), StatusCode::kResourceExhausted);
}

TEST(ScoringServiceTest, ScoreAsyncDeliversSameResultAsSync) {
  const Fixture fx = MakeFixture();
  ScoringService service;

  std::future<Result<ScoreResponse>> pending =
      service.ScoreAsync(MakeRequest(fx, "hardt"));
  Result<ScoreResponse> async_result = pending.get();
  ASSERT_TRUE(async_result.ok()) << async_result.status().ToString();

  Result<ScoreResponse> sync = service.Score(MakeRequest(fx, "hardt"));
  ASSERT_TRUE(sync.ok());
  EXPECT_TRUE(sync->cache_hit) << "async result did not warm the cache";
  EXPECT_EQ(sync->predictions, async_result->predictions);
}

/// The concurrent-cache smoke tools/ci.sh runs under TSan: many threads
/// race on one cold key (single-flight: exactly one fit) and score shared
/// fitted pipelines at once, including a feature-transforming Feld
/// pipeline, with no lock around prediction.
TEST(ScoringServiceTest, ConcurrentCacheSmoke) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.run.seed = 5;
  options.cache_capacity = 4;
  options.max_in_flight = 64;
  ScoringService service(options);

  constexpr int kThreads = 8;
  const std::vector<std::string> ids = {"lr", "feld06", "hardt", "lr",
                                        "feld06", "hardt", "lr", "feld06"};
  std::vector<std::vector<int>> predictions(kThreads);
  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Result<ScoreResponse> r = service.Score(MakeRequest(fx, ids[t]));
      if (r.ok()) {
        predictions[t] = std::move(r->predictions);
      } else {
        statuses[t] = r.status();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << ids[t] << ": "
                                  << statuses[t].ToString();
  }
  // Same approach => identical predictions regardless of which thread
  // fit the model (single-flight) or how scoring interleaved.
  for (int t = 0; t < kThreads; ++t) {
    for (int u = t + 1; u < kThreads; ++u) {
      if (ids[t] == ids[u]) {
        EXPECT_EQ(predictions[t], predictions[u]);
      }
    }
  }
  // Three distinct keys, each fit exactly once.
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads) - 3u);
  EXPECT_EQ(stats.size, 3u);
}

TEST(ScoringServiceTest, DestroyWithAbandonedAsyncWorkIsSafe) {
  // Drop the service while ScoreAsync work is still queued, without ever
  // awaiting the futures. ~ScoringService resets the pool first, so the
  // drained tasks must find the mutex/CV/cache/in-flight counter alive
  // (ASan/TSan in tools/ci.sh would flag the old reverse-order teardown).
  const Fixture fx = MakeFixture();
  std::vector<std::future<Result<ScoreResponse>>> futures;
  {
    ScoringServiceOptions options;
    options.run.threads = 2;
    ScoringService service(options);
    for (int i = 0; i < 8; ++i) {
      futures.push_back(service.ScoreAsync(MakeRequest(fx, "lr")));
    }
  }  // Service destroyed here; futures deliberately not awaited yet.
  // Destruction drained the queue, so every future is ready and valid.
  for (auto& future : futures) {
    Result<ScoreResponse> r = future.get();
    if (r.ok()) {
      EXPECT_EQ(r->predictions.size(), fx.test.num_rows());
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

/// Observer that records the sequence numbers exactly as they are
/// delivered. No internal lock: the service promises observer delivery is
/// serialized under its sequencing lock, and the TSan run in tools/ci.sh
/// holds it to that.
class RecordingObserver : public serve::ScoreObserver {
 public:
  void OnBatchScored(const serve::ScoredBatch& batch) override {
    sequences.push_back(batch.sequence);
    batch_rows.push_back(batch.predictions->size());
    flipped_seen.push_back(batch.flipped_predictions != nullptr);
  }

  std::vector<uint64_t> sequences;
  std::vector<std::size_t> batch_rows;
  std::vector<bool> flipped_seen;
};

TEST(ScoringServiceTest, SequenceNumbersAreDenseAndOrderedUnderScoreAsync) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  RecordingObserver observer;
  options.observer = &observer;
  options.max_in_flight = 64;
  ScoringService service(options);

  constexpr int kRequests = 24;
  std::vector<std::future<Result<ScoreResponse>>> futures;
  futures.reserve(kRequests);
  const std::vector<std::string> ids = {"lr", "hardt", "kamcal"};
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.ScoreAsync(MakeRequest(fx, ids[i % 3])));
  }
  std::vector<uint64_t> response_sequences;
  for (auto& future : futures) {
    Result<ScoreResponse> r = future.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->sequence, 0u) << "successful response without a sequence";
    response_sequences.push_back(r->sequence);
  }

  // Every successful response consumed exactly one sequence number:
  // together they are a permutation of 1..kRequests.
  std::vector<uint64_t> sorted = response_sequences;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(sorted[i], static_cast<uint64_t>(i) + 1);
  }

  // The observer saw them *in stamp order* — delivery happens under the
  // same lock that assigns the stamp, so no interleaving can reorder it.
  ASSERT_EQ(observer.sequences.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(observer.sequences[i], static_cast<uint64_t>(i) + 1);
    EXPECT_EQ(observer.batch_rows[i], fx.test.num_rows());
    EXPECT_FALSE(observer.flipped_seen[i]);  // probe not enabled
  }
}

TEST(ScoringServiceTest, FailedRequestsConsumeNoSequence) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  RecordingObserver observer;
  options.observer = &observer;
  ScoringService service(options);

  EXPECT_FALSE(service.Score(MakeRequest(fx, "no_such_approach")).ok());
  EXPECT_TRUE(observer.sequences.empty());

  Result<ScoreResponse> ok = service.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->sequence, 1u) << "failed request consumed a sequence";
}

TEST(ScoringServiceTest, FlippedPredictionsDeliveredWhenProbeEnabled) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  RecordingObserver observer;
  options.observer = &observer;
  options.observe_flipped_predictions = true;
  ScoringService service(options);

  Result<ScoreResponse> r = service.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(observer.flipped_seen.size(), 1u);
  EXPECT_TRUE(observer.flipped_seen[0]);
  // The straight predictions must be untouched by the shadow probe.
  ScoringService plain;
  Result<ScoreResponse> baseline = plain.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(r->predictions, baseline->predictions);
}

TEST(ScoringServiceTest, EveryResponseCarriesAFreshRequestId) {
  const Fixture fx = MakeFixture();
  ScoringServiceOptions options;
  options.run.seed = 5;
  ScoringService service(options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    Result<ScoreResponse> r = service.Score(MakeRequest(fx, "lr"));
    ASSERT_TRUE(r.ok());
    EXPECT_NE(r->context.request_id, 0u);
    EXPECT_EQ(r->context.span_id, r->context.request_id);  // root span
    ids.push_back(r->context.request_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());

  // Same seed, fresh service: the id *stream* is deterministic.
  ScoringService replay(options);
  Result<ScoreResponse> first = replay.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(),
                        first->context.request_id) != ids.end());
}

TEST(ScoringServiceTest, PreStampedContextIsPropagatedNotReplaced) {
  const Fixture fx = MakeFixture();
  ScoringService service;
  ScoreRequest request = MakeRequest(fx, "lr");
  request.context = obs::RootContext(0xc0ffee);
  Result<ScoreResponse> r = service.Score(request);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->context.request_id, 0xc0ffeeu);
}

TEST(ScoringServiceTest, ClearCacheForcesRefit) {
  const Fixture fx = MakeFixture();
  ScoringService service;
  ASSERT_TRUE(service.Score(MakeRequest(fx, "lr")).ok());
  service.ClearCache();
  EXPECT_EQ(service.cache_stats().size, 0u);
  Result<ScoreResponse> refit = service.Score(MakeRequest(fx, "lr"));
  ASSERT_TRUE(refit.ok());
  EXPECT_FALSE(refit->cache_hit);
}

}  // namespace
}  // namespace fairbench
