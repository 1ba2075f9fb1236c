#ifndef FAIRBENCH_SERVE_SCORING_SERVICE_H_
#define FAIRBENCH_SERVE_SCORING_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/run_options.h"
#include "data/dataset.h"
#include "exec/thread_pool.h"
#include "obs/request_context.h"
#include "serve/client.h"
#include "serve/observer.h"
#include "serve/sequencer.h"

namespace fairbench {
namespace serve {

/// Configuration of a ScoringService.
struct ScoringServiceOptions {
  /// Shared execution knobs; `run.threads` sizes the worker pool and
  /// `run.seed` is the terminal fit-seed fallback (see `defaults`).
  core::RunOptions run;

  /// Per-request defaults (fit seed, deadline), folded in exactly once at
  /// admission. The sharded router resolves the routing key through the
  /// *same* struct — see docs/serving.md "Request defaults".
  RequestDefaults defaults;

  /// Fitted pipelines kept warm, least-recently-used eviction. Each entry
  /// is one fitted Pipeline keyed (approach_id, dataset_fingerprint, seed).
  std::size_t cache_capacity = 8;

  /// Upper bound on requests admitted but not yet finished. When full,
  /// Score()/ScoreAsync() *reject immediately* with ResourceExhausted —
  /// they never block the caller — which keeps overload failure fast and
  /// explicit (the backpressure contract; see docs/serving.md). On a
  /// sharded client this bound is per shard: admission control scales
  /// with the tier.
  std::size_t max_in_flight = 32;

  /// Completion hook (borrowed; must outlive the service). Every
  /// *successful* response is delivered exactly once, in sequence order,
  /// under the sequencing lock — see observer.h for the callback contract.
  /// nullptr = no observation (sequence numbers are stamped regardless).
  ScoreObserver* observer = nullptr;

  /// Also score every row with S flipped and hand the results to the
  /// observer (ScoredBatch::flipped_predictions) — the streaming Causal
  /// Discrimination probe. Doubles per-row prediction work on observed
  /// requests, so leave it off unless a monitor consumes windowed CD.
  bool observe_flipped_predictions = false;

  /// Sequencing point for response stamps + observer delivery. nullptr =
  /// the service creates a private one. A ShardedScoringService injects
  /// one shared sequencer into all shards so the tier-wide sequence
  /// stream stays dense (see sequencer.h).
  std::shared_ptr<ResponseSequencer> sequencer;

  /// Position of this service inside a sharded tier; salts the
  /// request-id stream (so shards of one tier never mint colliding ids)
  /// and is 0 for a standalone service, which keeps the standalone id
  /// stream byte-identical to pre-sharding builds.
  std::size_t shard_index = 0;
};

/// Thread-safe batch scorer over the approach registry; the single-shard
/// serve::Client implementation (the sharded router composes N of these).
///
/// - Fitted pipelines are cached under (approach_id, DatasetFingerprint,
///   seed) with LRU eviction; concurrent misses on one key fit once and
///   share the result (single-flight). Cold fits use the registry's
///   serving variant (MakeServingPipeline).
/// - A lookup holds the service mutex for one map find and one
///   shared_ptr copy; prediction then runs without any lock, since a
///   fitted pipeline predicts statelessly.
/// - SwapPipeline replaces the model for one key under the same mutex:
///   in-flight scores finish on the version they looked up, and a
///   replaced or evicted model lives until its last request drops it.
/// - Rows of a batch are scored in parallel on an exec::ThreadPool.
/// - Admission is bounded: at most max_in_flight requests past the door,
///   beyond that Score() returns ResourceExhausted immediately.
/// - Deadlines are checked at admission, after fit, and between scoring
///   chunks, returning DeadlineExceeded on the first check that misses.
class ScoringService : public Client {
 public:
  explicit ScoringService(ScoringServiceOptions options = {});

  /// Drains the worker pool before any other member is torn down, so
  /// queued ScoreAsync work always runs against live state. Callers may
  /// safely abandon ScoreAsync futures and drop the service; pending
  /// requests still execute (their results are simply discarded).
  ~ScoringService() override;

  Result<ScoreResponse> Score(const ScoreRequest& request) override;

  /// Queues the request on the worker pool and returns a future for its
  /// result. A full service yields an immediately-ready ResourceExhausted
  /// future rather than blocking. The request's `train`/`data` datasets
  /// must outlive the future (see ScoreRequest); the future itself may be
  /// abandoned without awaiting it.
  std::future<Result<ScoreResponse>> ScoreAsync(ScoreRequest request) override;

  /// Installs a fitted model (deserialized artifact, or a refit from
  /// swap.train when the artifact is empty) as the live model for the
  /// swap's cache key. The build happens outside the service mutex; the
  /// install is one map update under it.
  Status SwapPipeline(const SwapRequest& swap) override;

  ClientStats Stats() const override;

  CacheStats cache_stats() const;

  /// Drops every cached model (stats keep accumulating).
  void ClearCache() override;

 private:
  /// One cache slot; `ready` flips once under mu_ when the fitting
  /// thread finishes (successfully or not). A ready slot's pipeline is
  /// never mutated (a refit or swap installs a new slot), so any number of
  /// requests score it at once without a lock.
  struct Slot {
    bool ready = false;
    Status status = Status::OK();
    std::shared_ptr<const Pipeline> pipeline;
    /// Last-touch stamp from tick_; eviction removes the smallest.
    uint64_t last_used = 0;
  };

  /// Stamps the trace context, runs ScoreWithContext, then records the
  /// request's telemetry (HDR latency with the request id as exemplar, and
  /// the JSONL RequestEvent when event export is on) for success *and*
  /// failure outcomes.
  Result<ScoreResponse> ScoreAdmitted(const ScoreRequest& request,
                                      const Timer& admitted,
                                      bool allow_parallel);

  Result<ScoreResponse> ScoreWithContext(const ScoreRequest& request,
                                         const obs::RequestContext& ctx,
                                         const Timer& admitted,
                                         bool allow_parallel,
                                         const char** cache_outcome);

  /// Returns the fitted pipeline for the request's cache key, fitting at
  /// most once per key across threads. `*hit` reports warm vs cold;
  /// `*cache_outcome` is "hit", "miss", or "shared" (waited behind another
  /// thread's fit of the same key). `deadline` is the resolved per-request
  /// deadline (0 = none).
  Result<std::shared_ptr<const Pipeline>> GetOrFit(const ScoreRequest& request, uint64_t seed,
                               double deadline,
                               const obs::RequestContext& ctx,
                               const Timer& admitted, bool* hit,
                               double* fit_seconds,
                               const char** cache_outcome);

  /// Builds (deserialize-or-fit) the pipeline a SwapRequest installs.
  Result<std::shared_ptr<const Pipeline>> BuildSwapPipeline(
      const SwapRequest& swap, uint64_t seed) const;

  Status CheckDeadline(double deadline, const Timer& admitted,
                       const char* stage) const;

  /// Evicts coldest-stamp ready slots until the cache fits its capacity.
  /// Requires mu_.
  void EvictIfNeededLocked();

  ScoringServiceOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  /// Request-id source, seeded from options_.run.seed (salted by
  /// shard_index inside a sharded tier): a service with a fixed seed
  /// issues a reproducible id stream (see request_context.h).
  obs::RequestIdGenerator ids_;

  /// Sequence stamping + ordered observer delivery; shared across shards
  /// inside a ShardedScoringService (see sequencer.h).
  std::shared_ptr<ResponseSequencer> sequencer_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> swaps_{0};

  mutable std::mutex mu_;
  std::condition_variable slot_ready_;
  std::map<std::string, std::shared_ptr<Slot>> cache_;  // Guarded by mu_.
  uint64_t tick_ = 0;                                    // Guarded by mu_.
  std::atomic<std::size_t> in_flight_{0};
};

}  // namespace serve
}  // namespace fairbench

#endif  // FAIRBENCH_SERVE_SCORING_SERVICE_H_
