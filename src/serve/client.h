#ifndef FAIRBENCH_SERVE_CLIENT_H_
#define FAIRBENCH_SERVE_CLIENT_H_

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/run_options.h"
#include "data/dataset.h"
#include "obs/request_context.h"

namespace fairbench {
namespace serve {

/// One batch scoring request: score every row of `data` under the given
/// registry approach, fitting on `train` if no cached model exists.
///
/// `train` and `data` are borrowed, not owned: the caller must keep both
/// datasets alive until the request finishes — for ScoreAsync, until the
/// returned future resolves or the client is destroyed, whichever comes
/// first (destruction drains pending requests, which still read them).
struct ScoreRequest {
  std::string approach_id;
  const Dataset* train = nullptr;  ///< Fit data (cache-miss path).
  const Dataset* data = nullptr;   ///< Rows to score.

  /// Fit seed; part of the cache key (and of the shard-routing key).
  /// 0 is *reserved* as "unset" and is resolved through the client's
  /// RequestDefaults at admission (see below) — a literal fit seed of 0
  /// cannot be requested; pick any nonzero seed instead. Router and
  /// shard resolve identically, so keys never diverge.
  uint64_t seed = 0;

  /// Wall-clock budget in seconds, measured from admission. 0 = resolved
  /// through RequestDefaults (whose own 0 means "no deadline"). Missing it
  /// yields DeadlineExceeded; a partially-fit model is still cached so the
  /// retry is warm.
  double deadline_seconds = 0.0;

  /// Trace context to propagate. Leave default (request_id == 0) and the
  /// service stamps a fresh deterministic context at admission; pre-stamp
  /// it to carry an upstream trace's id through this hop. The stamped
  /// context comes back on ScoreResponse::context and tags every span,
  /// latency exemplar, exported event, and monitor event of the request.
  obs::RequestContext context;
};

/// Outcome of one request.
struct ScoreResponse {
  std::vector<int> predictions;  ///< One 0/1 label per row of `data`.
  bool cache_hit = false;        ///< Model came from the warm cache.
  double fit_seconds = 0.0;      ///< 0 on cache hits.
  double score_seconds = 0.0;

  /// Monotonic completion stamp: 1, 2, 3, ... across all successful
  /// responses of one client, stamped under the client's sequencing lock
  /// in the order responses complete (not the order requests arrived).
  /// A sharded client shares one sequencer across its shards, so the
  /// stamp stream stays dense and duplicate-free tier-wide. Downstream
  /// consumers use it to detect reordering and drops — two responses can
  /// never carry the same value, and a consumer that sees sequence n+2
  /// after n knows exactly one response went missing. Failed requests
  /// consume no sequence number.
  uint64_t sequence = 0;

  /// The context this request ran under (stamped at admission when the
  /// request carried none). `context.request_id` is the handle for finding
  /// the request's trace spans, JSONL event, and any alert that covers it.
  obs::RequestContext context;
};

/// Cache counters (also exported as serve.* obs metrics). For a sharded
/// client these are summed over shards.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  std::size_t size = 0;
};

/// Aggregate view of a Client, uniform across the single service and the
/// sharded router.
struct ClientStats {
  CacheStats cache;
  std::size_t shards = 1;  ///< 1 for a plain ScoringService.
  uint64_t swaps = 0;      ///< Completed SwapPipeline installs.
};

/// Replaces the live fitted model for one cache key without failing
/// in-flight scores: requests that already looked the model up finish on
/// the version they saw, which lives until the last of them drops it.
struct SwapRequest {
  std::string approach_id;

  /// Borrowed; fingerprinted to form the cache key (and the routing key on
  /// a sharded client) exactly like ScoreRequest::train, and used as the
  /// refit data when `artifact` is empty.
  const Dataset* train = nullptr;

  /// Cache-key seed, resolved through RequestDefaults like
  /// ScoreRequest::seed (0 is reserved as "unset", so a literal seed of
  /// 0 cannot be requested). Also the refit seed when `artifact` is
  /// empty.
  uint64_t seed = 0;

  /// Serialized fitted pipeline (SerializePipeline bytes) to install. Its
  /// embedded approach id must equal `approach_id` (InvalidArgument
  /// otherwise; corrupt bytes are DataLoss). Empty = refit from `train`
  /// off the hot path and install the result.
  std::string artifact;
};

/// Per-client defaults folded into each request exactly once, at
/// admission. The sharded router and the shard-local services resolve
/// through this same struct — the router for the routing key, the shard
/// for the cache key — so a request can never hash to one shard and fit
/// under another seed. Documented in docs/serving.md ("Request
/// defaults"), which is the single normative description.
struct RequestDefaults {
  /// Fit seed applied when ScoreRequest::seed == 0. 0 = fall back to the
  /// client's RunOptions::seed (the historical behavior).
  uint64_t seed = 0;

  /// Deadline applied when ScoreRequest::deadline_seconds == 0. 0 = no
  /// default deadline.
  double deadline_seconds = 0.0;

  uint64_t ResolveSeed(uint64_t request_seed,
                       const core::RunOptions& run) const {
    if (request_seed != 0) return request_seed;
    return seed != 0 ? seed : run.seed;
  }

  double ResolveDeadline(double request_deadline) const {
    return request_deadline > 0.0 ? request_deadline : deadline_seconds;
  }
};

/// The serving-tier client surface: everything that scores batches behind
/// a warm cache. Both the single-process ScoringService and the
/// consistent-hash ShardedScoringService implement it, so bench harnesses,
/// tools, monitor wiring, and tests program against Client& and sharding
/// is purely a construction-time choice.
///
/// Contracts every implementation honors:
///  - Score/ScoreAsync never block on admission: a full client rejects
///    with ResourceExhausted immediately (per shard, for a sharded one).
///  - SwapPipeline replaces the live model for its key atomically;
///    in-flight requests finish on the version they looked up — zero
///    blocked and zero failed requests across a swap.
///  - Successful responses carry a dense, duplicate-free sequence stream.
class Client {
 public:
  virtual ~Client() = default;

  /// Scores one batch synchronously. Safe to call from many threads.
  virtual Result<ScoreResponse> Score(const ScoreRequest& request) = 0;

  /// Queues the request and returns a future for its result. A full
  /// client yields an immediately-ready ResourceExhausted future rather
  /// than blocking. The request's `train`/`data` datasets must outlive
  /// the future (see ScoreRequest); the future itself may be abandoned.
  virtual std::future<Result<ScoreResponse>> ScoreAsync(
      ScoreRequest request) = 0;

  /// Aggregate counters; cheap enough for polling.
  virtual ClientStats Stats() const = 0;

  /// Installs a new fitted model for the swap's cache key (see
  /// SwapRequest). Never blocks or fails in-flight scores.
  virtual Status SwapPipeline(const SwapRequest& swap) = 0;

  /// Drops every cached model (stats keep accumulating).
  virtual void ClearCache() = 0;
};

}  // namespace serve
}  // namespace fairbench

#endif  // FAIRBENCH_SERVE_CLIENT_H_
