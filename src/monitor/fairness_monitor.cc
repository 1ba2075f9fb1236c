#include "monitor/fairness_monitor.h"

#include <string>

#include "common/timer.h"
#include "data/dataset.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace fairbench {
namespace monitor {

FairnessMonitor::FairnessMonitor(FairnessMonitorOptions options)
    : options_(options),
      queue_(options.queue_capacity),
      next_event_sequence_(options.first_sequence),
      next_sequence_(options.first_sequence),
      window_(options.window),
      policy_(options.alerts) {
  if (options_.stride_events == 0) options_.stride_events = 1;
}

bool FairnessMonitor::Ingest(const ScoredEvent& event) {
  ingested_.fetch_add(1, std::memory_order_relaxed);
  if (queue_.TryPush(event)) return true;
  dropped_queue_full_.fetch_add(1, std::memory_order_relaxed);
  FAIRBENCH_COUNTER_ADD("monitor.events.dropped", 1);
  return false;
}

void FairnessMonitor::OnBatchScored(const serve::ScoredBatch& batch) {
  if (batch.data == nullptr || batch.predictions == nullptr) return;
  const uint64_t start_nanos = NowNanos();
  const std::vector<int>& predictions = *batch.predictions;
  const std::vector<int>& sensitive = batch.data->sensitive();
  const std::vector<int>& labels = batch.data->labels();
  const bool have_labels =
      options_.use_labels && labels.size() == predictions.size();
  const bool have_flipped =
      batch.flipped_predictions != nullptr &&
      batch.flipped_predictions->size() == predictions.size();

  {
    std::lock_guard<std::mutex> lock(adapter_mu_);
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (last_batch_sequence_ != 0 &&
        batch.sequence != last_batch_sequence_ + 1) {
      batch_gaps_.fetch_add(1, std::memory_order_relaxed);
    }
    if (batch.sequence != 0) last_batch_sequence_ = batch.sequence;

    ScoredEvent event;
    event.timestamp_nanos = start_nanos;
    event.request_id = batch.request_id;
    for (std::size_t i = 0; i < predictions.size(); ++i) {
      event.sequence = next_event_sequence_++;
      event.group =
          static_cast<int16_t>(i < sensitive.size() ? sensitive[i] : 0);
      event.prediction = static_cast<int16_t>(predictions[i]);
      event.label = static_cast<int16_t>(have_labels ? labels[i] : -1);
      event.flipped_prediction = static_cast<int16_t>(
          have_flipped ? (*batch.flipped_predictions)[i] : -1);
      Ingest(event);
    }
  }
  Drain();
  FAIRBENCH_HDR_RECORD("monitor.ingest.ns", NowNanos() - start_nanos,
                       batch.request_id);
}

std::size_t FairnessMonitor::Drain() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  return DrainLocked();
}

std::size_t FairnessMonitor::DrainLocked() {
  std::size_t drained = 0;
  ScoredEvent event;
  while (queue_.TryPop(&event)) {
    if (event.sequence < next_sequence_) {
      // Behind a gap we already gave up on.
      ++dropped_stale_;
      continue;
    }
    pending_.emplace(event.sequence, event);
    while (!pending_.empty() &&
           pending_.begin()->first == next_sequence_) {
      Process(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_sequence_;
      ++drained;
    }
    if (pending_.size() > options_.max_reorder) {
      // The missing sequence(s) are presumed lost (dropped at the queue):
      // jump the cursor to the oldest event we actually hold.
      const uint64_t resume = pending_.begin()->first;
      skipped_gap_ += resume - next_sequence_;
      FAIRBENCH_COUNTER_ADD("monitor.events.skipped_gap",
                            resume - next_sequence_);
      next_sequence_ = resume;
      while (!pending_.empty() &&
             pending_.begin()->first == next_sequence_) {
        Process(pending_.begin()->second);
        pending_.erase(pending_.begin());
        ++next_sequence_;
        ++drained;
      }
    }
  }
  return drained;
}

void FairnessMonitor::Process(const ScoredEvent& event) {
  window_.Push(event);
  ++processed_;
  if (++since_eval_ >= options_.stride_events && window_.AtCountCapacity()) {
    since_eval_ = 0;
    Evaluate();
  }
}

void FairnessMonitor::Evaluate() {
  WindowSnapshot snap = EvaluateWindow(window_, options_.ci);
  snap.index = evaluations_++;
  FAIRBENCH_COUNTER_ADD("monitor.windows.evaluated", 1);

  std::vector<Alert> fired = policy_.Observe(snap);
  for (const Alert& alert : fired) {
    FAIRBENCH_COUNTER_ADD("monitor.alerts.total", 1);
    FAIRBENCH_COUNTER_ADD(
        std::string("monitor.alerts.") + SeriesName(alert.series), 1);
    FAIRBENCH_LOG_WARN(
        "monitor",
        "alert: series=%s window=%zu estimate=%.4f baseline=%.4f "
        "threshold=%.4f end_sequence=%llu request_ids=[%016llx,%016llx]",
        SeriesName(alert.series), alert.window_index, alert.estimate,
        alert.baseline, alert.threshold,
        static_cast<unsigned long long>(alert.end_sequence),
        static_cast<unsigned long long>(alert.begin_request_id),
        static_cast<unsigned long long>(alert.end_request_id));
    if (FAIRBENCH_EVENTS_ACTIVE()) {
      obs::AlertEvent event;
      event.timestamp_ns = NowNanos();
      event.begin_request_id = alert.begin_request_id;
      event.end_request_id = alert.end_request_id;
      event.window_index = alert.window_index;
      event.series = SeriesName(alert.series);
      event.estimate = alert.estimate;
      event.baseline = alert.baseline;
      event.threshold = alert.threshold;
      event.end_sequence = alert.end_sequence;
      obs::EventLog::Global().Record(std::move(event));
    }
    alerts_.push_back(alert);
  }
  windows_.push_back(snap);
  if (windows_.size() > kWindowHistory) windows_.pop_front();
}

MonitorStats FairnessMonitor::stats() const {
  MonitorStats stats;
  stats.ingested = ingested_.load(std::memory_order_relaxed);
  stats.dropped_queue_full =
      dropped_queue_full_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batch_gaps = batch_gaps_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(drain_mu_);
  stats.dropped_stale = dropped_stale_;
  stats.skipped_gap = skipped_gap_;
  stats.processed = processed_;
  stats.evaluations = evaluations_;
  stats.alerts_fired = alerts_.size();
  return stats;
}

}  // namespace monitor
}  // namespace fairbench
