// End-to-end request-id propagation: one scoring request's id must be
// findable in every telemetry surface — the JSONL request record, the
// alert record of the window that covered it, the Chrome trace spans, and
// the HDR latency exemplars. This is the acceptance test for the
// request-scoped telemetry pipeline: score -> window -> alert under one id.
#include <gtest/gtest.h>

#include <cinttypes>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "data/generators/population.h"
#include "data/split.h"
#include "monitor/fairness_monitor.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/scoring_service.h"

namespace fairbench {
namespace {

/// Turns on the whole telemetry stack for one test and restores the
/// disabled defaults (the obs contract: everything off unless asked).
class ScopedFullTelemetry {
 public:
  ScopedFullTelemetry() {
    obs::MetricsRegistry::Global().ResetAll();
    obs::EventLog::Global().Clear();
    obs::Tracer::Global().Clear();
    obs::SetMetricsEnabled(true);
    obs::SetEventsEnabled(true);
    obs::Tracer::Global().SetEnabled(true);
  }
  ~ScopedFullTelemetry() {
    obs::Tracer::Global().SetEnabled(false);
    obs::SetEventsEnabled(false);
    obs::SetMetricsEnabled(false);
    obs::MetricsRegistry::Global().ResetAll();
    obs::EventLog::Global().Clear();
    obs::Tracer::Global().Clear();
  }
};

std::string HexId(uint64_t id) { return StrFormat("%016" PRIx64, id); }

TEST(RequestTraceE2eTest, OneIdSpansEventsAlertsTraceAndExemplars) {
  ScopedFullTelemetry telemetry;

  const PopulationConfig config = GermanConfig();
  Result<Dataset> data = GeneratePopulation(config, 1200, 11);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  Rng rng(11);
  SplitIndices split = TrainTestSplit(data->num_rows(), 0.7, rng);
  if (split.test.size() > 80) split.test.resize(80);
  Result<std::pair<Dataset, Dataset>> parts = MaterializeSplit(*data, split);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();

  // Alert policy rigged to breach on the first evaluated window: no stream
  // has a positive rate above 1, so an absolute lower bound of 1.5 fires
  // deterministically. Window sized to one batch so the alert's request-id
  // range covers exactly the ids we scored.
  monitor::FairnessMonitorOptions mopts;
  mopts.window.max_events = parts->second.num_rows();
  mopts.stride_events = parts->second.num_rows();
  mopts.ci.resamples = 10;
  for (std::size_t s = 0; s < monitor::kNumSeries; ++s) {
    mopts.alerts.series[s].enabled = false;
  }
  monitor::SeriesPolicy& rigged =
      mopts.alerts.policy(monitor::Series::kPositiveRate);
  rigged.enabled = true;
  rigged.mode = monitor::AlertMode::kAbsoluteBounds;
  rigged.lower_bound = 1.5;
  rigged.consecutive = 1;
  monitor::FairnessMonitor monitor(mopts);

  serve::ScoringServiceOptions sopts;
  sopts.run.seed = 11;
  sopts.observer = &monitor;
  serve::ScoringService service(sopts);

  serve::ScoreRequest request;
  request.approach_id = "lr";
  request.train = &parts->first;
  request.data = &parts->second;

  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    Result<serve::ScoreResponse> response = service.Score(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_NE(response->context.request_id, 0u);
    ids.push_back(response->context.request_id);
  }
  monitor.Drain();
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()).size(), ids.size());
  ASSERT_FALSE(monitor.alerts().empty()) << "rigged policy never fired";

  // 1. The alert's window range points at ids we actually scored — the
  //    first window holds only the first batch.
  const monitor::Alert& alert = monitor.alerts().front();
  EXPECT_EQ(alert.begin_request_id, ids[0]);
  EXPECT_EQ(alert.end_request_id, ids[0]);

  // 2. JSONL: the same id appears on a request record and an alert record.
  const std::string jsonl = obs::EventLog::Global().ToJsonl("e2e");
  const std::string hex = HexId(ids[0]);
  EXPECT_NE(jsonl.find("\"type\":\"request\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"request_id\":\"" + hex + "\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"alert\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"begin_request_id\":\"" + hex + "\""),
            std::string::npos);
  // The cold request fitted; the warm repeats hit the cache.
  EXPECT_NE(jsonl.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"cache\":\"hit\""), std::string::npos);

  // 3. Chrome trace: serve.score/serve.lookup/serve.predict spans carry
  //    the id in args.request_id, and the fit span belongs to the cold id.
  const std::string trace = obs::Tracer::Global().ToChromeJson();
  EXPECT_NE(trace.find("\"args\":{\"request_id\":\"" + hex + "\"}"),
            std::string::npos);
  std::set<std::string> span_names;
  for (const obs::TraceEvent& event : obs::Tracer::Global().Snapshot()) {
    if (event.request_id == ids[0]) span_names.insert(event.name);
  }
  EXPECT_TRUE(span_names.count("serve.score/lr")) << span_names.size();
  EXPECT_TRUE(span_names.count("serve.predict/lr"));
  bool fit_span = false;
  for (const std::string& name : span_names) {
    fit_span = fit_span || name.rfind("serve.fit/", 0) == 0;
  }
  EXPECT_TRUE(fit_span) << "cold request left no serve.fit span";

  // 4. HDR exemplars: the serve latency histogram names one of our ids.
  const obs::HdrSnapshot latency = obs::MetricsRegistry::Global()
                                       .GetHdrHistogram("serve.latency.ns")
                                       .Snapshot();
  EXPECT_EQ(latency.count, 3u);
  std::set<uint64_t> exemplar_ids;
  for (const obs::HdrExemplar& exemplar : latency.exemplars) {
    exemplar_ids.insert(exemplar.request_id);
  }
  bool exemplar_hit = false;
  for (const uint64_t id : ids) exemplar_hit |= exemplar_ids.count(id) > 0;
  EXPECT_TRUE(exemplar_hit);

  // 5. The exported Prometheus text is valid and carries the exemplar.
  const std::string prom =
      obs::PrometheusText(obs::CaptureTelemetry(), "e2e");
  EXPECT_TRUE(obs::ValidatePrometheusText(prom).ok());
  EXPECT_NE(prom.find("fairbench_serve_latency_ns_count 3"),
            std::string::npos);
}

TEST(RequestTraceE2eTest, PreStampedContextPropagatesUpstreamId) {
  ScopedFullTelemetry telemetry;

  const PopulationConfig config = GermanConfig();
  Result<Dataset> data = GeneratePopulation(config, 800, 3);
  ASSERT_TRUE(data.ok());
  Rng rng(3);
  SplitIndices split = TrainTestSplit(data->num_rows(), 0.7, rng);
  if (split.test.size() > 40) split.test.resize(40);
  Result<std::pair<Dataset, Dataset>> parts = MaterializeSplit(*data, split);
  ASSERT_TRUE(parts.ok());

  serve::ScoringService service(serve::ScoringServiceOptions{});
  serve::ScoreRequest request;
  request.approach_id = "lr";
  request.train = &parts->first;
  request.data = &parts->second;
  request.context = obs::RootContext(0xfeedface12345678ull);

  Result<serve::ScoreResponse> response = service.Score(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->context.request_id, 0xfeedface12345678ull);
  const std::string jsonl = obs::EventLog::Global().ToJsonl("h");
  EXPECT_NE(jsonl.find("\"request_id\":\"feedface12345678\""),
            std::string::npos);
  const std::string trace = obs::Tracer::Global().ToChromeJson();
  EXPECT_NE(trace.find("\"request_id\":\"feedface12345678\""),
            std::string::npos);
}

}  // namespace
}  // namespace fairbench
