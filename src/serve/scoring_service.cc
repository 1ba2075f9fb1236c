#include "serve/scoring_service.h"

#include <utility>

#include "common/random.h"
#include "common/string_util.h"
#include "core/registry.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/pipeline_artifact.h"

namespace fairbench {
namespace serve {
namespace {

std::string CacheKey(const std::string& approach_id, uint64_t fingerprint,
                     uint64_t seed) {
  return StrFormat("%s/%016llx/%016llx", approach_id.c_str(),
                   static_cast<unsigned long long>(fingerprint),
                   static_cast<unsigned long long>(seed));
}

/// splitmix64 stream salt separating the request-id stream from the fit
/// seeds also derived from run.seed.
constexpr uint64_t kRequestIdStream = 0x5245514944ull;  // "REQID"

/// Shard 0 (and a standalone service) keeps the exact historical id
/// stream; other shards of a tier branch off it so ids never collide.
uint64_t RequestIdSeed(const ScoringServiceOptions& options) {
  const uint64_t base = DeriveSeed(options.run.seed, kRequestIdStream);
  return options.shard_index == 0 ? base
                                  : DeriveSeed(base, options.shard_index);
}

}  // namespace

ScoringService::ScoringService(ScoringServiceOptions options)
    : options_(std::move(options)),
      pool_(std::make_unique<ThreadPool>(options_.run.threads)),
      ids_(RequestIdSeed(options_)),
      sequencer_(options_.sequencer != nullptr
                     ? options_.sequencer
                     : std::make_shared<ResponseSequencer>()) {}

ScoringService::~ScoringService() {
  // ~ThreadPool drains its queue, so queued ScoreAsync tasks still run
  // here. Reset the pool explicitly *before* implicit member destruction:
  // otherwise mu_/slot_ready_/cache_/in_flight_ (declared after pool_,
  // hence destroyed first) would already be gone when those tasks touch
  // them.
  pool_.reset();
}

Result<ScoreResponse> ScoringService::Score(const ScoreRequest& request) {
  Timer admitted;
  // Admission control: never block the caller; a full service says so.
  std::size_t depth = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  FAIRBENCH_GAUGE_SET("serve.queue.depth", static_cast<double>(depth));
  if (depth > options_.max_in_flight) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    FAIRBENCH_COUNTER_ADD("serve.rejected.total", 1);
    return Status::ResourceExhausted(
        StrFormat("scoring service full: %zu requests in flight (max %zu)",
                  depth, options_.max_in_flight));
  }
  Result<ScoreResponse> response =
      ScoreAdmitted(request, admitted, /*allow_parallel=*/true);
  depth = in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  FAIRBENCH_GAUGE_SET("serve.queue.depth", static_cast<double>(depth));
  return response;
}

std::future<Result<ScoreResponse>> ScoringService::ScoreAsync(
    ScoreRequest request) {
  // Same admission gate as Score(), applied at enqueue time so a flooded
  // service rejects instead of growing an unbounded backlog.
  std::size_t depth = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  FAIRBENCH_GAUGE_SET("serve.queue.depth", static_cast<double>(depth));
  if (depth > options_.max_in_flight) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    FAIRBENCH_COUNTER_ADD("serve.rejected.total", 1);
    std::promise<Result<ScoreResponse>> rejected;
    rejected.set_value(Status::ResourceExhausted(
        StrFormat("scoring service full: %zu requests in flight (max %zu)",
                  depth, options_.max_in_flight)));
    return rejected.get_future();
  }
  auto task = std::make_shared<std::packaged_task<Result<ScoreResponse>()>>(
      [this, request = std::move(request), admitted = Timer()]() {
        // The wrapper already occupies a pool worker; scoring chunks must
        // not be re-submitted to the same pool (a bounded pool full of
        // wrappers waiting on their own chunks would deadlock), so the
        // batch runs serially inside the worker.
        Result<ScoreResponse> response =
            ScoreAdmitted(request, admitted, /*allow_parallel=*/false);
        std::size_t depth =
            in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
        FAIRBENCH_GAUGE_SET("serve.queue.depth", static_cast<double>(depth));
        return response;
      });
  std::future<Result<ScoreResponse>> future = task->get_future();
  pool_->Submit([task]() { (*task)(); });
  return future;
}

Status ScoringService::CheckDeadline(double deadline, const Timer& admitted,
                                     const char* stage) const {
  if (deadline <= 0.0) return Status::OK();
  const double elapsed = admitted.ElapsedSeconds();
  if (elapsed <= deadline) return Status::OK();
  FAIRBENCH_COUNTER_ADD("serve.deadline_exceeded.total", 1);
  return Status::DeadlineExceeded(
      StrFormat("request missed its %.3fs deadline at %s (%.3fs elapsed)",
                deadline, stage, elapsed));
}

Result<ScoreResponse> ScoringService::ScoreAdmitted(const ScoreRequest& request,
                                                    const Timer& admitted,
                                                    bool allow_parallel) {
  obs::RequestContext ctx = request.context;
  if (ctx.request_id == 0) ctx = ids_.Next();
  const char* cache_outcome = "";
  Result<ScoreResponse> result =
      ScoreWithContext(request, ctx, admitted, allow_parallel, &cache_outcome);
  const uint64_t total_ns =
      static_cast<uint64_t>(admitted.ElapsedSeconds() * 1e9);
  FAIRBENCH_HDR_RECORD("serve.latency.ns", total_ns, ctx.request_id);
  if (FAIRBENCH_EVENTS_ACTIVE()) {
    const double deadline =
        options_.defaults.ResolveDeadline(request.deadline_seconds);
    obs::RequestEvent event;
    event.timestamp_ns = NowNanos();
    event.request_id = ctx.request_id;
    event.approach = request.approach_id;
    event.rows = request.data != nullptr ? request.data->num_rows() : 0;
    event.cache = cache_outcome;
    event.total_ns = total_ns;
    event.has_deadline = deadline > 0.0;
    if (event.has_deadline) {
      event.deadline_slack_ns = static_cast<int64_t>(
          deadline * 1e9 - static_cast<double>(total_ns));
    }
    if (result.ok()) {
      const ScoreResponse& response = result.value();
      event.sequence = response.sequence;
      event.fit_ns = static_cast<uint64_t>(response.fit_seconds * 1e9);
      event.predict_ns = static_cast<uint64_t>(response.score_seconds * 1e9);
      event.status = "ok";
    } else {
      event.status = StatusCodeName(result.status().code());
    }
    obs::EventLog::Global().Record(std::move(event));
  }
  return result;
}

Result<ScoreResponse> ScoringService::ScoreWithContext(
    const ScoreRequest& request, const obs::RequestContext& ctx,
    const Timer& admitted, bool allow_parallel, const char** cache_outcome) {
  FAIRBENCH_TRACE_SPAN_REQ("serve",
                           options_.run.SpanName("serve.score") + "/" +
                               request.approach_id,
                           ctx.request_id);
  if (request.data == nullptr || request.train == nullptr) {
    return Status::InvalidArgument("ScoreRequest: train and data must be set");
  }
  // Defaults fold in exactly once, here: the seed becomes part of the
  // cache key (and matched the routing key upstream on a sharded tier).
  const uint64_t seed =
      options_.defaults.ResolveSeed(request.seed, options_.run);
  const double deadline =
      options_.defaults.ResolveDeadline(request.deadline_seconds);
  FAIRBENCH_RETURN_NOT_OK(CheckDeadline(deadline, admitted, "admission"));

  ScoreResponse response;
  response.context = ctx;
  std::shared_ptr<const Pipeline> model;
  {
    FAIRBENCH_TRACE_SPAN_REQ("serve",
                             options_.run.SpanName("serve.lookup") + "/" +
                                 request.approach_id,
                             ctx.request_id);
    FAIRBENCH_ASSIGN_OR_RETURN(
        model, GetOrFit(request, seed, deadline, ctx, admitted,
                        &response.cache_hit, &response.fit_seconds,
                        cache_outcome));
  }
  FAIRBENCH_RETURN_NOT_OK(CheckDeadline(deadline, admitted, "post-fit"));

  Timer score_timer;
  const Dataset& data = *request.data;
  const std::size_t n = data.num_rows();
  std::vector<int> predictions(n, 0);
  std::vector<int> flipped;
  const bool want_flipped =
      options_.observer != nullptr && options_.observe_flipped_predictions;
  if (want_flipped) flipped.assign(n, 0);

  // `out` receives the row's prediction; `flip` overrides S with 1-S (the
  // streaming Causal Discrimination probe for the observer). Rows fan out
  // over the pool unless this request already runs on a pool worker; such
  // a request must not read pool_, which ~ScoringService resets while
  // queued work drains.
  const RowPredictor predict = model->MakeRowPredictor(data);
  auto score_into = [&](std::vector<int>& out, bool flip) {
    ParallelOptions popts;
    popts.pool = allow_parallel ? pool_.get() : nullptr;
    popts.threads = allow_parallel ? 0 : 1;
    popts.min_chunk = 64;
    return ParallelFor(
        n,
        [&, flip](std::size_t row) -> Status {
          if ((row & 63u) == 0u) {
            FAIRBENCH_RETURN_NOT_OK(
                CheckDeadline(deadline, admitted, "scoring"));
          }
          const int s = data.sensitive()[row];
          FAIRBENCH_ASSIGN_OR_RETURN(out[row], predict(row, flip ? 1 - s : s));
          return Status::OK();
        },
        popts);
  };
  {
    FAIRBENCH_TRACE_SPAN_REQ("serve",
                             options_.run.SpanName("serve.predict") + "/" +
                                 request.approach_id,
                             ctx.request_id);
    FAIRBENCH_RETURN_NOT_OK(score_into(predictions, /*flip=*/false));
    if (want_flipped) {
      FAIRBENCH_RETURN_NOT_OK(score_into(flipped, /*flip=*/true));
    }
  }
  response.score_seconds = score_timer.ElapsedSeconds();
  FAIRBENCH_HDR_RECORD(
      "serve.predict.ns",
      static_cast<uint64_t>(response.score_seconds * 1e9), ctx.request_id);
  response.predictions = std::move(predictions);
  FAIRBENCH_COUNTER_ADD("serve.rows_scored.total",
                        static_cast<uint64_t>(n));

  // Stamp + deliver through the (possibly tier-shared) sequencer:
  // observers see successful responses exactly once, in stamp order.
  if (options_.observer != nullptr) {
    ScoredBatch batch;
    batch.request_id = ctx.request_id;
    batch.approach_id = &request.approach_id;
    batch.data = request.data;
    batch.predictions = &response.predictions;
    batch.flipped_predictions = want_flipped ? &flipped : nullptr;
    response.sequence = sequencer_->StampAndDeliver(options_.observer, &batch);
  } else {
    response.sequence = sequencer_->StampAndDeliver(nullptr, nullptr);
  }
  return response;
}

Result<std::shared_ptr<const Pipeline>> ScoringService::GetOrFit(
    const ScoreRequest& request, uint64_t seed, double deadline,
    const obs::RequestContext& ctx, const Timer& admitted, bool* hit,
    double* fit_seconds, const char** cache_outcome) {
  const uint64_t fingerprint = DatasetFingerprint(*request.train);
  const std::string key = CacheKey(request.approach_id, fingerprint, seed);

  std::shared_ptr<Slot> slot;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      slot = std::make_shared<Slot>();
      cache_.emplace(key, slot);
      misses_.fetch_add(1, std::memory_order_relaxed);
      EvictIfNeededLocked();
    } else {
      slot = it->second;
      // A slot that is not ready yet is another thread's fit in progress
      // (single-flight: wait for it, bounded by the request deadline when
      // one is set).
      const bool waited = !slot->ready;
      while (!slot->ready) {
        if (deadline > 0.0) {
          const double remaining = deadline - admitted.ElapsedSeconds();
          if (remaining <= 0.0 ||
              slot_ready_.wait_for(
                  lock, std::chrono::duration<double>(remaining),
                  [&] { return slot->ready; }) == false) {
            FAIRBENCH_COUNTER_ADD("serve.deadline_exceeded.total", 1);
            return Status::DeadlineExceeded(
                "deadline expired while waiting for an in-progress fit");
          }
        } else {
          slot_ready_.wait(lock, [&] { return slot->ready; });
        }
      }
      if (slot->status.ok()) hits_.fetch_add(1, std::memory_order_relaxed);
      FAIRBENCH_COUNTER_ADD(slot->status.ok() ? "serve.cache.hit"
                                              : "serve.cache.miss",
                            1);
      *hit = slot->status.ok();
      *fit_seconds = 0.0;
      // "shared": this request rode another request's in-progress fit
      // (the single-flight path) rather than finding a warm model.
      *cache_outcome = waited ? "shared" : "hit";
      FAIRBENCH_RETURN_NOT_OK(slot->status);
      slot->last_used = ++tick_;
      return slot->pipeline;
    }
  }

  // Cache miss: fit outside the lock so other keys stay servable.
  *cache_outcome = "miss";
  FAIRBENCH_COUNTER_ADD("serve.cache.miss", 1);
  FAIRBENCH_TRACE_SPAN_REQ(
      "serve", options_.run.SpanName("serve.fit") + "/" + key, ctx.request_id);
  Timer fit_timer;
  Status status = Status::OK();
  std::shared_ptr<Pipeline> pipeline;
  Result<Pipeline> made = MakeServingPipeline(request.approach_id);
  if (!made.ok()) {
    status = made.status();
  } else {
    pipeline = std::make_shared<Pipeline>(std::move(made).value());
    FairContext context;
    context.seed = seed;
    status = pipeline->Fit(*request.train, context);
  }
  const double elapsed = fit_timer.ElapsedSeconds();
  FAIRBENCH_HDR_RECORD("serve.fit.ns", static_cast<uint64_t>(elapsed * 1e9),
                       ctx.request_id);

  {
    std::lock_guard<std::mutex> lock(mu_);
    slot->status = status;
    slot->ready = true;
    if (status.ok()) {
      slot->pipeline = pipeline;
      slot->last_used = ++tick_;
    } else {
      // Failed fits are not cached: drop the slot so a later request can
      // retry (waiters already hold their shared_ptr and see the error).
      // The identity check leaves alone a slot that a concurrent
      // SwapPipeline installed for this key while we were fitting.
      auto it = cache_.find(key);
      if (it != cache_.end() && it->second == slot) cache_.erase(it);
    }
  }
  slot_ready_.notify_all();
  FAIRBENCH_RETURN_NOT_OK(status);
  *hit = false;
  *fit_seconds = elapsed;
  return std::shared_ptr<const Pipeline>(std::move(pipeline));
}

Result<std::shared_ptr<const Pipeline>> ScoringService::BuildSwapPipeline(
    const SwapRequest& swap, uint64_t seed) const {
  if (!swap.artifact.empty()) {
    FAIRBENCH_ASSIGN_OR_RETURN(std::string embedded,
                               PeekApproachId(swap.artifact));
    if (embedded != swap.approach_id) {
      return Status::InvalidArgument(
          StrFormat("SwapRequest: artifact was written by '%s', not '%s'",
                    embedded.c_str(), swap.approach_id.c_str()));
    }
    FAIRBENCH_ASSIGN_OR_RETURN(Pipeline loaded,
                               DeserializePipeline(swap.artifact));
    return std::shared_ptr<const Pipeline>(
        std::make_shared<Pipeline>(std::move(loaded)));
  }
  Result<Pipeline> made = MakeServingPipeline(swap.approach_id);
  if (!made.ok()) return made.status();
  auto pipeline = std::make_shared<Pipeline>(std::move(made).value());
  FairContext context;
  context.seed = seed;
  FAIRBENCH_RETURN_NOT_OK(pipeline->Fit(*swap.train, context));
  return std::shared_ptr<const Pipeline>(std::move(pipeline));
}

Status ScoringService::SwapPipeline(const SwapRequest& swap) {
  if (swap.train == nullptr) {
    return Status::InvalidArgument("SwapRequest: train must be set");
  }
  const uint64_t seed = options_.defaults.ResolveSeed(swap.seed, options_.run);
  const uint64_t fingerprint = DatasetFingerprint(*swap.train);
  const std::string key = CacheKey(swap.approach_id, fingerprint, seed);

  // Build (deserialize or refit) entirely outside the service mutex; the
  // install below is one map update.
  FAIRBENCH_ASSIGN_OR_RETURN(std::shared_ptr<const Pipeline> pipeline,
                             BuildSwapPipeline(swap, seed));
  auto slot = std::make_shared<Slot>();
  slot->ready = true;
  slot->pipeline = std::move(pipeline);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Replaces any previous slot for the key. A displaced mid-fit slot
    // keeps its waiters (its fit completes into the orphaned slot); a
    // displaced model stays alive for the requests that already hold it.
    slot->last_used = ++tick_;
    cache_[key] = std::move(slot);
    EvictIfNeededLocked();
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  FAIRBENCH_COUNTER_ADD("serve.swaps.total", 1);
  return Status::OK();
}

void ScoringService::EvictIfNeededLocked() {
  while (cache_.size() > options_.cache_capacity) {
    // Evict the smallest recency stamp; never a slot mid-fit (waiters
    // poll it, and its key must stay claimed for single-flight).
    auto coldest = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second->ready &&
          (coldest == cache_.end() ||
           it->second->last_used < coldest->second->last_used)) {
        coldest = it;
      }
    }
    if (coldest == cache_.end()) break;  // Everything is mid-fit.
    FAIRBENCH_COUNTER_ADD("serve.cache.evicted.total", 1);
    cache_.erase(coldest);
  }
  FAIRBENCH_GAUGE_SET("serve.cache.size", static_cast<double>(cache_.size()));
}

CacheStats ScoringService::cache_stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.size = cache_.size();
  return stats;
}

ClientStats ScoringService::Stats() const {
  ClientStats stats;
  stats.cache = cache_stats();
  stats.shards = 1;
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  return stats;
}

void ScoringService::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep slots that are still fitting; their waiters need the fill.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second->ready) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  FAIRBENCH_GAUGE_SET("serve.cache.size", static_cast<double>(cache_.size()));
}

}  // namespace serve
}  // namespace fairbench
