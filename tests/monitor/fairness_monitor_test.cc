#include "monitor/fairness_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <thread>
#include <vector>

#include "common/random.h"
#include "data/generators/population.h"
#include "data/split.h"
#include "serve/scoring_service.h"

namespace fairbench {
namespace monitor {
namespace {

std::vector<ScoredEvent> MakeEvents(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ScoredEvent> events(n);
  for (std::size_t i = 0; i < n; ++i) {
    ScoredEvent& event = events[i];
    event.sequence = i;
    event.timestamp_nanos = 1000 * (i + 1);
    event.group = rng.Bernoulli(0.5) ? 1 : 0;
    event.label = rng.Bernoulli(0.5) ? 1 : 0;
    event.prediction = rng.Bernoulli(event.label == 1 ? 0.7 : 0.3) ? 1 : 0;
    event.flipped_prediction = event.prediction;
  }
  return events;
}

FairnessMonitorOptions SmallOptions() {
  FairnessMonitorOptions options;
  options.window.max_events = 64;
  options.stride_events = 32;
  options.queue_capacity = 16384;
  options.max_reorder = 16384;
  options.ci.resamples = 0;  // point estimates only; CIs tested elsewhere
  return options;
}

void ExpectSnapshotsIdentical(const std::deque<WindowSnapshot>& a,
                              const std::deque<WindowSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].begin_sequence, b[i].begin_sequence);
    EXPECT_EQ(a[i].end_sequence, b[i].end_sequence);
    EXPECT_EQ(a[i].events, b[i].events);
    for (std::size_t k = 0; k < kNumSeries; ++k) {
      EXPECT_EQ(a[i].series[k].valid, b[i].series[k].valid);
      // Exact ==: the contract is byte-identity, not tolerance.
      EXPECT_EQ(a[i].series[k].estimate, b[i].series[k].estimate);
      EXPECT_EQ(a[i].series[k].lower, b[i].series[k].lower);
      EXPECT_EQ(a[i].series[k].upper, b[i].series[k].upper);
    }
  }
}

void ExpectAlertsIdentical(const std::vector<Alert>& a,
                           const std::vector<Alert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].window_index, b[i].window_index);
    EXPECT_EQ(a[i].series, b[i].series);
    EXPECT_EQ(a[i].estimate, b[i].estimate);
    EXPECT_EQ(a[i].end_sequence, b[i].end_sequence);
  }
}

TEST(FairnessMonitorTest, EvaluatesAtStrideOnceWindowIsFull) {
  FairnessMonitor fair_monitor(SmallOptions());
  const std::vector<ScoredEvent> events = MakeEvents(200, 1);
  for (const ScoredEvent& event : events) {
    ASSERT_TRUE(fair_monitor.Ingest(event));
  }
  EXPECT_EQ(fair_monitor.Drain(), 200u);
  // Window fills at 64, then every 32 events: 64, 96, 128, 160, 192.
  ASSERT_EQ(fair_monitor.windows().size(), 5u);
  const std::vector<uint64_t> expected_ends = {63, 95, 127, 159, 191};
  for (std::size_t i = 0; i < 5; ++i) {
    const WindowSnapshot& snap = fair_monitor.windows()[i];
    EXPECT_EQ(snap.index, i);
    EXPECT_EQ(snap.events, 64u);
    EXPECT_EQ(snap.end_sequence, expected_ends[i]);
    EXPECT_EQ(snap.begin_sequence, expected_ends[i] - 63);
  }
  const MonitorStats stats = fair_monitor.stats();
  EXPECT_EQ(stats.ingested, 200u);
  EXPECT_EQ(stats.processed, 200u);
  EXPECT_EQ(stats.evaluations, 5u);
  EXPECT_EQ(stats.dropped_queue_full, 0u);
  EXPECT_EQ(stats.skipped_gap, 0u);
}

TEST(FairnessMonitorTest, WindowHistoryKeepsOnlyTheMostRecentSnapshots) {
  FairnessMonitorOptions options = SmallOptions();
  options.window.max_events = 4;
  options.stride_events = 1;  // One evaluation per event once full.
  FairnessMonitor fair_monitor(options);
  constexpr std::size_t kExtra = 7;
  constexpr std::size_t kEvaluations = FairnessMonitor::kWindowHistory + kExtra;
  // The first evaluation lands on the 4th event, then one per event.
  for (const ScoredEvent& event : MakeEvents(kEvaluations + 3, 8)) {
    ASSERT_TRUE(fair_monitor.Ingest(event));
  }
  fair_monitor.Drain();
  EXPECT_EQ(fair_monitor.stats().evaluations, kEvaluations);
  ASSERT_EQ(fair_monitor.windows().size(), FairnessMonitor::kWindowHistory);
  EXPECT_EQ(fair_monitor.windows().front().index, kExtra);
  EXPECT_EQ(fair_monitor.windows().back().index, kEvaluations - 1);
}

TEST(FairnessMonitorTest, ShuffledArrivalIsByteIdenticalToSerial) {
  const std::vector<ScoredEvent> events = MakeEvents(2048, 2);

  FairnessMonitor serial(SmallOptions());
  for (const ScoredEvent& event : events) serial.Ingest(event);
  serial.Drain();

  // Same events, adversarially shuffled arrival order, drained in chunks.
  std::vector<ScoredEvent> shuffled = events;
  Rng rng(99);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.UniformInt(i + 1));
    std::swap(shuffled[i], shuffled[j]);
  }
  FairnessMonitor reordered(SmallOptions());
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    reordered.Ingest(shuffled[i]);
    if (i % 300 == 0) reordered.Drain();
  }
  reordered.Drain();

  ExpectSnapshotsIdentical(serial.windows(), reordered.windows());
  ExpectAlertsIdentical(serial.alerts(), reordered.alerts());
  EXPECT_EQ(reordered.stats().processed, 2048u);
}

TEST(FairnessMonitorTest, ThreadedIngestionIsByteIdenticalToSerial) {
  const std::vector<ScoredEvent> events = MakeEvents(4096, 3);

  FairnessMonitorOptions options = SmallOptions();
  options.ci.resamples = 16;  // exercise the CI path under threading too

  FairnessMonitor serial(options);
  for (const ScoredEvent& event : events) serial.Ingest(event);
  serial.Drain();

  FairnessMonitor threaded(options);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&threaded, &events, t] {
      // Strided interleave: thread t pushes events t, t+4, t+8, ...
      for (std::size_t i = static_cast<std::size_t>(t); i < events.size();
           i += kThreads) {
        while (!threaded.Ingest(events[i])) threaded.Drain();
        if (i % 257 == 0) threaded.Drain();  // concurrent draining
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  threaded.Drain();

  ASSERT_GT(serial.windows().size(), 0u);
  ExpectSnapshotsIdentical(serial.windows(), threaded.windows());
  ExpectAlertsIdentical(serial.alerts(), threaded.alerts());
  EXPECT_EQ(threaded.stats().processed, 4096u);
  EXPECT_EQ(threaded.stats().skipped_gap, 0u);
}

TEST(FairnessMonitorTest, QueueFullDropsAndReorderBoundSkipsGap) {
  FairnessMonitorOptions options = SmallOptions();
  options.queue_capacity = 8;
  options.max_reorder = 2;
  FairnessMonitor fair_monitor(options);

  const std::vector<ScoredEvent> events = MakeEvents(16, 4);
  std::size_t accepted = 0;
  for (const ScoredEvent& event : events) {
    accepted += fair_monitor.Ingest(event) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 8u);  // capacity 8, nothing drained in between
  EXPECT_EQ(fair_monitor.stats().dropped_queue_full, 8u);
  EXPECT_EQ(fair_monitor.Drain(), 8u);

  // Sequences 8..15 were dropped; events starting at 20 pile up in the
  // reorder buffer until it exceeds max_reorder, then the gap is skipped.
  for (uint64_t seq : {20, 21, 22}) {
    ScoredEvent event;
    event.sequence = seq;
    ASSERT_TRUE(fair_monitor.Ingest(event));
  }
  fair_monitor.Drain();
  const MonitorStats stats = fair_monitor.stats();
  EXPECT_EQ(stats.skipped_gap, 12u);  // 8..19 written off
  EXPECT_EQ(stats.processed, 11u);    // 0..7 and 20..22
  // A straggler from inside the skipped gap is dropped as stale.
  ScoredEvent stale;
  stale.sequence = 9;
  ASSERT_TRUE(fair_monitor.Ingest(stale));
  fair_monitor.Drain();
  EXPECT_EQ(fair_monitor.stats().dropped_stale, 1u);
}

TEST(FairnessMonitorTest, TimeWindowEvictsByHorizon) {
  FairnessMonitorOptions options = SmallOptions();
  options.window.max_events = 0;
  options.window.horizon_nanos = 32 * 1000;  // 32 events at 1µs spacing
  options.stride_events = 16;
  FairnessMonitor fair_monitor(options);
  for (const ScoredEvent& event : MakeEvents(128, 5)) {
    fair_monitor.Ingest(event);
  }
  fair_monitor.Drain();
  ASSERT_GT(fair_monitor.windows().size(), 0u);
  for (const WindowSnapshot& snap : fair_monitor.windows()) {
    EXPECT_LE(snap.events, 33u);  // horizon keeps ~32 events
  }
}

TEST(FairnessMonitorTest, ObservesScoringServiceEndToEnd) {
  Result<Dataset> data = GenerateGerman(600, /*seed=*/11);
  ASSERT_TRUE(data.ok());
  Rng rng(7);
  SplitIndices split = TrainTestSplit(data->num_rows(), 0.5, rng);
  Result<std::pair<Dataset, Dataset>> parts = MaterializeSplit(*data, split);
  ASSERT_TRUE(parts.ok());
  const Dataset& train = parts->first;
  const Dataset& test = parts->second;

  FairnessMonitorOptions monitor_options = SmallOptions();
  monitor_options.window.max_events = 128;
  monitor_options.stride_events = 128;
  FairnessMonitor fair_monitor(monitor_options);

  serve::ScoringServiceOptions options;
  options.observer = &fair_monitor;
  options.observe_flipped_predictions = true;
  serve::ScoringService service(options);

  serve::ScoreRequest request;
  request.approach_id = "lr";
  request.train = &train;
  request.data = &test;
  constexpr int kBatches = 4;
  for (int i = 0; i < kBatches; ++i) {
    Result<serve::ScoreResponse> response = service.Score(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }

  const MonitorStats stats = fair_monitor.stats();
  EXPECT_EQ(stats.batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.ingested, kBatches * test.num_rows());
  EXPECT_EQ(stats.processed, kBatches * test.num_rows());
  EXPECT_EQ(stats.batch_gaps, 0u);
  ASSERT_GT(fair_monitor.windows().size(), 0u);
  const WindowSnapshot& snap = fair_monitor.windows().front();
  EXPECT_EQ(snap.events, 128u);
  // Labels and the CD probe both flowed through the serve adapter.
  EXPECT_TRUE(snap.at(Series::kLabelRate).valid);
  EXPECT_TRUE(snap.at(Series::kCd).valid);
  EXPECT_TRUE(snap.at(Series::kPositiveRate).valid);
}

}  // namespace
}  // namespace monitor
}  // namespace fairbench
