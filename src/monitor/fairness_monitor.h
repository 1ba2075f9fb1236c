#ifndef FAIRBENCH_MONITOR_FAIRNESS_MONITOR_H_
#define FAIRBENCH_MONITOR_FAIRNESS_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "monitor/alert_policy.h"
#include "monitor/event.h"
#include "monitor/observer_queue.h"
#include "monitor/window.h"
#include "serve/observer.h"

namespace fairbench {
namespace monitor {

struct FairnessMonitorOptions {
  SlidingWindowOptions window;
  /// Evaluate (snapshot + alert check) every `stride_events` processed
  /// events once the window is at count capacity. Amortizes the bootstrap:
  /// the per-event budget is eval_cost / stride.
  std::size_t stride_events = 256;
  /// Observer-queue capacity (rounded up to a power of two). Full queue =>
  /// the event is dropped and counted, never blocks the producer.
  std::size_t queue_capacity = 8192;
  /// Reorder-buffer bound: how many out-of-order events to hold while
  /// waiting for a missing sequence before declaring it lost and skipping
  /// the gap. Bounds memory when an event was dropped at the queue.
  std::size_t max_reorder = 4096;
  /// The first sequence number the monitor expects. The serve adapter
  /// numbers examples itself starting here; standalone Ingest callers must
  /// number their events densely from the same origin.
  uint64_t first_sequence = 0;
  /// Read labels / flipped predictions off scored batches. Disable
  /// use_labels when served datasets carry placeholder labels.
  bool use_labels = true;
  WindowCiOptions ci;
  AlertPolicyOptions alerts;
};

/// Counters describing the monitor's own health (all values monotone).
struct MonitorStats {
  uint64_t ingested = 0;           ///< Events offered (Ingest + batches).
  uint64_t dropped_queue_full = 0; ///< Offered but queue was full.
  uint64_t dropped_stale = 0;      ///< Arrived behind an already-skipped gap.
  uint64_t skipped_gap = 0;        ///< Sequences given up on (reorder bound).
  uint64_t processed = 0;          ///< Events that reached the window.
  uint64_t batches = 0;            ///< OnBatchScored calls.
  uint64_t batch_gaps = 0;         ///< Batch-sequence discontinuities seen.
  uint64_t evaluations = 0;        ///< Windows evaluated.
  uint64_t alerts_fired = 0;
};

/// Streaming fairness monitor: consumes scored examples, maintains a
/// sliding window of exact per-group tallies, periodically evaluates the
/// windowed fairness metrics (DI / TPRB / TNRB / CD) plus the drift canary
/// series with moving-block-bootstrap CIs, and feeds every snapshot
/// through an AlertPolicy. Fired alerts are recorded, counted in the obs
/// registry (monitor.alerts.total and monitor.alerts.<series>) and logged
/// at warn level.
///
/// Determinism: events are processed strictly in sequence order — a
/// reorder buffer holds early arrivals until the missing sequences show
/// up — so for a fixed event stream the snapshot and alert sequences are
/// byte-identical whether events arrive from one thread or many, in order
/// or shuffled. (Only drop/skip *counters* can differ across schedules.)
///
/// Threading: Ingest is safe from any number of producers. Drain is safe
/// from any thread (internally serialized; concurrent calls contend on a
/// mutex, never corrupt). windows()/alerts()/stats() must not race a
/// concurrent Drain — read them from the draining thread or after
/// ingestion has quiesced.
class FairnessMonitor : public serve::ScoreObserver {
 public:
  explicit FairnessMonitor(FairnessMonitorOptions options);

  /// Offers one event to the queue; false (and a drop count) when full.
  /// The caller assigns `event.sequence` densely from
  /// options.first_sequence.
  bool Ingest(const ScoredEvent& event);

  /// serve::ScoreObserver: turns one scored batch into per-example events
  /// (numbering them with the monitor's own dense counter — safe because
  /// the scoring service serializes observer delivery), enqueues them, and
  /// drains inline. Never blocks and never throws.
  void OnBatchScored(const serve::ScoredBatch& batch) override;

  /// Processes everything currently in the queue (in sequence order);
  /// returns the number of events processed into the window.
  std::size_t Drain();

  /// Snapshots kept by windows(): the most recent ones, so a long-lived
  /// server's history stays bounded (stats().evaluations counts them all).
  static constexpr std::size_t kWindowHistory = 1024;

  /// The last kWindowHistory evaluated snapshots, oldest first; each
  /// snapshot's `index` counts every evaluation, retained or not.
  const std::deque<WindowSnapshot>& windows() const { return windows_; }
  const std::vector<Alert>& alerts() const { return alerts_; }
  MonitorStats stats() const;

  const FairnessMonitorOptions& options() const { return options_; }
  const AlertPolicy& policy() const { return policy_; }

 private:
  std::size_t DrainLocked();
  void Process(const ScoredEvent& event);
  void Evaluate();

  FairnessMonitorOptions options_;
  ObserverQueue queue_;

  // Producer-side counters (racy increments are fine: relaxed atomics).
  std::atomic<uint64_t> ingested_{0};
  std::atomic<uint64_t> dropped_queue_full_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batch_gaps_{0};

  // Serve-adapter state; OnBatchScored is serialized by the scoring
  // service's sequencing lock, but standalone tests may call it directly,
  // so it takes adapter_mu_ anyway (uncontended in the serve path).
  std::mutex adapter_mu_;
  uint64_t next_event_sequence_;
  uint64_t last_batch_sequence_ = 0;

  // Consumer-side state, all under drain_mu_.
  mutable std::mutex drain_mu_;
  uint64_t next_sequence_;
  std::map<uint64_t, ScoredEvent> pending_;
  SlidingWindow window_;
  AlertPolicy policy_;
  std::size_t since_eval_ = 0;
  std::deque<WindowSnapshot> windows_;
  std::vector<Alert> alerts_;
  uint64_t dropped_stale_ = 0;
  uint64_t skipped_gap_ = 0;
  uint64_t processed_ = 0;
  uint64_t evaluations_ = 0;
};

}  // namespace monitor
}  // namespace fairbench

#endif  // FAIRBENCH_MONITOR_FAIRNESS_MONITOR_H_
