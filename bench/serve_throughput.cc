// Serving-path throughput: requests/second through the ScoringService,
// cold (cache miss: fit + score) vs warm (cache hit: score only), one
// representative approach per pipeline stage.
//
//   serve_throughput [--scale f] [--seed n] [--jobs n]
//                    [--reps n] [--warm n] [--json file]
//
//     --reps n   timing repetitions per approach (default 5; the JSON
//                records every repetition so tools/record_bench.py can
//                take the median — see the bench-noise policy in
//                BENCH_kernels.json's provenance)
//     --warm n   warm requests timed per repetition (default 20)
//     --batch n  rows per scoring request (default 100, clamped to the
//                test split — serving batches are much smaller than the
//                training set, which is what makes the warm cache pay)
//     --json f   write the raw per-repetition measurements to f;
//                distill with: tools/record_bench.py f > BENCH_serve.json
//
// The human-readable table always goes to stdout.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "data/generators/population.h"
#include "data/split.h"
#include "obs/hdr_histogram.h"
#include "serve/consistent_hash.h"
#include "serve/pipeline_artifact.h"
#include "serve/scoring_service.h"
#include "serve/sharded_scoring_service.h"

using namespace fairbench;

namespace {

/// One stage-representative approach each, so the table spans the whole
/// registry's serving behavior (including the serialized-scoring path the
/// Feld transform forces) without benching all 19 entries.
const std::vector<std::string> kApproaches = {"lr", "kamcal", "feld06",
                                              "zafar_dp_fair", "hardt"};

struct Repetition {
  double cold_seconds = 0.0;  ///< One cache-miss request (fit + score).
  double warm_seconds = 0.0;  ///< Per-request, averaged over --warm hits.
};

/// The percentile summary the JSON carries per approach, from an HDR
/// histogram fed one sample per request (every repetition pooled — the
/// tail estimate wants all the samples, not a per-rep median).
void WriteHdrJson(std::FILE* f, const char* key,
                  const obs::HdrHistogram& hdr) {
  const obs::HdrSnapshot s = hdr.Snapshot();
  std::fprintf(f,
               "\"%s\": {\"count\": %llu, \"min_ns\": %llu, "
               "\"max_ns\": %llu, \"p50_ns\": %.0f, \"p90_ns\": %.0f, "
               "\"p95_ns\": %.0f, \"p99_ns\": %.0f, \"p999_ns\": %.0f, "
               "\"relative_error\": %g}",
               key, static_cast<unsigned long long>(s.count),
               static_cast<unsigned long long>(s.min),
               static_cast<unsigned long long>(s.max), s.p50, s.p90, s.p95,
               s.p99, s.p999, hdr.relative_error());
}

}  // namespace

int main(int argc, char** argv) {
  // Local flags first; everything else goes through the shared parser.
  std::size_t reps = 5;
  std::size_t warm_requests = 20;
  std::size_t batch_rows = 100;
  std::string json_path;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = bench::ParsePositiveCount("--reps", argv[++i]);
    } else if (std::strcmp(argv[i], "--warm") == 0 && i + 1 < argc) {
      warm_requests = bench::ParsePositiveCount("--warm", argv[++i]);
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch_rows = bench::ParsePositiveCount("--batch", argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bench::BenchArgs args =
      bench::ParseArgs(static_cast<int>(rest.size()), rest.data());
  bench::PrintBanner("Serving throughput: cold vs warm req/sec", args);

  const PopulationConfig config = GermanConfig();
  Result<Dataset> data = GeneratePopulation(
      config, bench::ScaledRows(config.default_rows, args.scale), args.seed);
  if (!data.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }
  Rng rng(args.seed);
  SplitIndices split = TrainTestSplit(data->num_rows(), 0.7, rng);
  if (split.test.size() > batch_rows) split.test.resize(batch_rows);
  Result<std::pair<Dataset, Dataset>> parts = MaterializeSplit(*data, split);
  if (!parts.ok()) {
    std::fprintf(stderr, "split failed: %s\n",
                 parts.status().ToString().c_str());
    return 1;
  }
  const Dataset& train = parts->first;
  const Dataset& batch = parts->second;

  serve::ScoringServiceOptions options;
  options.run.seed = args.seed;
  options.run.threads = args.jobs;
  options.cache_capacity = kApproaches.size();
  serve::ScoringService service(options);

  std::printf("train=%zu rows, batch=%zu rows, reps=%zu, warm=%zu\n\n",
              train.num_rows(), batch.num_rows(), reps, warm_requests);
  std::printf("%-16s %12s %12s %12s %9s %9s %9s %9s\n", "approach",
              "cold ms/req", "warm ms/req", "warm req/s", "speedup",
              "w.p50 ms", "w.p95 ms", "w.p99 ms");

  struct ApproachResult {
    std::string id;
    std::vector<Repetition> runs;
    obs::HdrHistogram cold_hdr;  ///< One sample per cold request.
    obs::HdrHistogram warm_hdr;  ///< One sample per warm request, pooled.
  };
  std::vector<std::unique_ptr<ApproachResult>> measurements;
  for (const std::string& id : kApproaches) {
    serve::ScoreRequest request;
    request.approach_id = id;
    request.train = &train;
    request.data = &batch;

    auto result = std::make_unique<ApproachResult>();
    result->id = id;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Repetition r;
      service.ClearCache();  // Force the cold path every repetition.
      Timer cold;
      Result<serve::ScoreResponse> miss = service.Score(request);
      r.cold_seconds = cold.ElapsedSeconds();
      result->cold_hdr.Record(static_cast<uint64_t>(r.cold_seconds * 1e9));
      if (!miss.ok() || miss->cache_hit) {
        std::fprintf(stderr, "%s: cold request failed: %s\n", id.c_str(),
                     miss.ok() ? "unexpected cache hit"
                               : miss.status().ToString().c_str());
        return 1;
      }
      // Each warm request is timed individually so the HDR histogram sees
      // true per-request latencies (tails included), not a loop average.
      double warm_total = 0.0;
      for (std::size_t w = 0; w < warm_requests; ++w) {
        Timer warm;
        Result<serve::ScoreResponse> hit = service.Score(request);
        const double elapsed = warm.ElapsedSeconds();
        if (!hit.ok() || !hit->cache_hit) {
          std::fprintf(stderr, "%s: warm request failed: %s\n", id.c_str(),
                       hit.ok() ? "unexpected cache miss"
                                : hit.status().ToString().c_str());
          return 1;
        }
        warm_total += elapsed;
        result->warm_hdr.Record(static_cast<uint64_t>(elapsed * 1e9));
      }
      r.warm_seconds = warm_total / static_cast<double>(warm_requests);
      result->runs.push_back(r);
    }

    // The table shows the median repetition (the same statistic
    // record_bench.py persists); the JSON keeps every sample.
    std::vector<Repetition> sorted = result->runs;
    std::sort(sorted.begin(), sorted.end(),
              [](const Repetition& a, const Repetition& b) {
                return a.cold_seconds < b.cold_seconds;
              });
    const double cold_med = sorted[sorted.size() / 2].cold_seconds;
    std::sort(sorted.begin(), sorted.end(),
              [](const Repetition& a, const Repetition& b) {
                return a.warm_seconds < b.warm_seconds;
              });
    const double warm_med = sorted[sorted.size() / 2].warm_seconds;
    const obs::HdrSnapshot warm_snap = result->warm_hdr.Snapshot();
    std::printf("%-16s %11.3f  %11.4f  %11.1f  %7.1fx %9.4f %9.4f %9.4f\n",
                id.c_str(), cold_med * 1e3, warm_med * 1e3,
                warm_med > 0.0 ? 1.0 / warm_med : 0.0,
                warm_med > 0.0 ? cold_med / warm_med : 0.0,
                warm_snap.p50 / 1e6, warm_snap.p95 / 1e6,
                warm_snap.p99 / 1e6);
    measurements.push_back(std::move(result));
  }

  // --- Sharded working-set capacity: 4 shards vs one instance. ---
  //
  // The working set is 8 (lr, seed) keys against a per-instance cache of
  // 4: a single service LRU-thrashes (every request round-robins onto an
  // evicted key and pays a cold fit), while 4 shards partition the keys —
  // 2 per shard, chosen via the same ring the router uses — and serve
  // every request warm. On this 1-vCPU host the >=3x sharded win is
  // aggregate warm-cache capacity, not CPU parallelism; both sides run
  // the same request stream through the serve::Client interface.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kKeysPerShard = 2;
  constexpr std::size_t kShardCapacity = 4;
  constexpr std::size_t kTimedPasses = 2;
  std::vector<uint64_t> working_seeds;
  {
    const serve::ConsistentHashRing ring(kShards);
    const uint64_t fingerprint = DatasetFingerprint(train);
    std::vector<std::size_t> load(kShards, 0);
    for (uint64_t candidate = 1;
         candidate <= 512 && working_seeds.size() < kShards * kKeysPerShard;
         ++candidate) {
      const std::size_t shard = ring.ShardFor(
          serve::ConsistentHashRing::KeyHash("lr", fingerprint, candidate));
      if (load[shard] < kKeysPerShard) {
        ++load[shard];
        working_seeds.push_back(candidate);
      }
    }
  }
  std::vector<serve::ScoreRequest> working_set;
  for (const uint64_t seed : working_seeds) {
    serve::ScoreRequest request;
    request.approach_id = "lr";
    request.train = &train;
    request.data = &batch;
    request.seed = seed;
    working_set.push_back(request);
  }

  struct ShardedRep {
    double single_seconds = 0.0;
    double sharded_seconds = 0.0;
    std::size_t single_hits = 0;
    std::size_t sharded_hits = 0;
  };
  // One pass over the working set through any serve::Client.
  auto run_passes = [&](serve::Client& client, std::size_t passes,
                        std::size_t* hits, double* seconds) -> bool {
    Timer timer;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (const serve::ScoreRequest& request : working_set) {
        Result<serve::ScoreResponse> r = client.Score(request);
        if (!r.ok()) {
          std::fprintf(stderr, "working-set request failed: %s\n",
                       r.status().ToString().c_str());
          return false;
        }
        if (r->cache_hit) ++*hits;
      }
    }
    *seconds = timer.ElapsedSeconds();
    return true;
  };

  std::vector<ShardedRep> sharded_runs;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    serve::ScoringServiceOptions instance;
    instance.run.seed = args.seed;
    instance.run.threads = args.jobs;
    instance.cache_capacity = kShardCapacity;
    serve::ScoringService single(instance);
    serve::ShardedScoringServiceOptions tier;
    tier.shard = instance;
    tier.shards = kShards;
    serve::ShardedScoringService sharded(tier);

    ShardedRep r;
    double warmup_seconds = 0.0;
    std::size_t warmup_hits = 0;
    // One untimed pass: the sharded tier ends fully warm, the single
    // instance ends with whatever half of the set survived its LRU.
    if (!run_passes(single, 1, &warmup_hits, &warmup_seconds) ||
        !run_passes(sharded, 1, &warmup_hits, &warmup_seconds)) {
      return 1;
    }
    if (!run_passes(single, kTimedPasses, &r.single_hits,
                    &r.single_seconds) ||
        !run_passes(sharded, kTimedPasses, &r.sharded_hits,
                    &r.sharded_seconds)) {
      return 1;
    }
    sharded_runs.push_back(r);
  }
  {
    std::vector<double> single_s, sharded_s;
    for (const ShardedRep& r : sharded_runs) {
      single_s.push_back(r.single_seconds);
      sharded_s.push_back(r.sharded_seconds);
    }
    std::sort(single_s.begin(), single_s.end());
    std::sort(sharded_s.begin(), sharded_s.end());
    const double requests =
        static_cast<double>(working_set.size() * kTimedPasses);
    const double single_med = single_s[single_s.size() / 2];
    const double sharded_med = sharded_s[sharded_s.size() / 2];
    std::printf(
        "\nworking set: %zu keys, cache=%zu/instance, %zu shards\n"
        "%-24s %12s %12s\n%-24s %11.1f  %11.1f\n%-24s %11zu  %11zu\n"
        "sharded speedup vs single: %.1fx (aggregate warm-cache capacity)\n",
        working_set.size(), kShardCapacity, kShards, "", "single",
        "4 shards", "req/s", requests / single_med, requests / sharded_med,
        "warm hits (of 16)", sharded_runs[reps / 2].single_hits,
        sharded_runs[reps / 2].sharded_hits,
        sharded_med > 0.0 ? single_med / sharded_med : 0.0);
  }

  // --- Zafar serving cold fits: dense IRLS vs sparse CG-Newton. ---
  //
  // The three Zafar variants are the registry's expensive cold fits; the
  // serving tier routes them through ZafarOptions::use_sparse_newton
  // (MakeServingPipeline). Record the per-variant fit-time delta. Each
  // timing covers building and fitting the pipeline, which is what a cold
  // request's fit_seconds measures.
  struct ColdFitRep {
    double dense_fit_seconds = 0.0;
    double sparse_fit_seconds = 0.0;
  };
  struct ColdFitResult {
    std::string id;
    std::vector<ColdFitRep> runs;
  };
  const std::vector<std::string> kZafarVariants = {
      "zafar_dp_fair", "zafar_dp_acc", "zafar_eo_fair"};
  std::vector<ColdFitResult> cold_fit_results;
  std::printf("\n%-16s %14s %14s %9s\n", "zafar cold fit", "dense ms",
              "sparse ms", "speedup");
  auto time_cold_fit = [&](const std::string& id, bool sparse,
                           double* seconds) -> Status {
    Timer timer;
    FAIRBENCH_ASSIGN_OR_RETURN(
        Pipeline pipeline, sparse ? MakeServingPipeline(id) : MakePipeline(id));
    FairContext context;
    context.seed = args.seed;
    FAIRBENCH_RETURN_NOT_OK(pipeline.Fit(train, context));
    *seconds = timer.ElapsedSeconds();
    return Status::OK();
  };
  for (const std::string& id : kZafarVariants) {
    ColdFitResult result;
    result.id = id;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      ColdFitRep r;
      Status status = time_cold_fit(id, /*sparse=*/false, &r.dense_fit_seconds);
      if (status.ok()) {
        status = time_cold_fit(id, /*sparse=*/true, &r.sparse_fit_seconds);
      }
      if (!status.ok()) {
        std::fprintf(stderr, "%s: cold fit failed: %s\n", id.c_str(),
                     status.ToString().c_str());
        return 1;
      }
      result.runs.push_back(r);
    }
    std::vector<ColdFitRep> sorted = result.runs;
    std::sort(sorted.begin(), sorted.end(),
              [](const ColdFitRep& a, const ColdFitRep& b) {
                return a.dense_fit_seconds < b.dense_fit_seconds;
              });
    const double dense_med = sorted[sorted.size() / 2].dense_fit_seconds;
    std::sort(sorted.begin(), sorted.end(),
              [](const ColdFitRep& a, const ColdFitRep& b) {
                return a.sparse_fit_seconds < b.sparse_fit_seconds;
              });
    const double sparse_med = sorted[sorted.size() / 2].sparse_fit_seconds;
    std::printf("%-16s %13.1f  %13.1f  %7.1fx\n", id.c_str(),
                dense_med * 1e3, sparse_med * 1e3,
                sparse_med > 0.0 ? dense_med / sparse_med : 0.0);
    cold_fit_results.push_back(std::move(result));
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"source\": \"bench/serve_throughput\",\n"
                 "  \"scale\": %g,\n  \"seed\": %llu,\n  \"jobs\": %zu,\n"
                 "  \"train_rows\": %zu,\n  \"batch_rows\": %zu,\n"
                 "  \"warm_requests_per_rep\": %zu,\n  \"approaches\": [\n",
                 args.scale, static_cast<unsigned long long>(args.seed),
                 args.jobs, train.num_rows(), batch.num_rows(),
                 warm_requests);
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      const ApproachResult& m = *measurements[i];
      std::fprintf(f, "    {\"id\": \"%s\", \"repetitions\": [\n", m.id.c_str());
      const std::vector<Repetition>& runs = m.runs;
      for (std::size_t rep = 0; rep < runs.size(); ++rep) {
        std::fprintf(f,
                     "      {\"cold_seconds\": %.9f, "
                     "\"warm_seconds_per_request\": %.9f}%s\n",
                     runs[rep].cold_seconds, runs[rep].warm_seconds,
                     rep + 1 < runs.size() ? "," : "");
      }
      std::fprintf(f, "    ], \"latency_ns\": {");
      WriteHdrJson(f, "cold", m.cold_hdr);
      std::fprintf(f, ", ");
      WriteHdrJson(f, "warm", m.warm_hdr);
      std::fprintf(f, "}}%s\n", i + 1 < measurements.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"sharded\": {\n"
                 "    \"shards\": %zu,\n"
                 "    \"cache_capacity_per_instance\": %zu,\n"
                 "    \"working_set_keys\": %zu,\n"
                 "    \"requests_per_rep\": %zu,\n"
                 "    \"mechanism\": \"aggregate warm-cache capacity "
                 "(1-vCPU host: not CPU parallelism)\",\n"
                 "    \"repetitions\": [\n",
                 kShards, kShardCapacity, working_set.size(),
                 working_set.size() * kTimedPasses);
    for (std::size_t rep = 0; rep < sharded_runs.size(); ++rep) {
      const ShardedRep& r = sharded_runs[rep];
      std::fprintf(f,
                   "      {\"single_seconds\": %.9f, "
                   "\"sharded_seconds\": %.9f, \"single_hits\": %zu, "
                   "\"sharded_hits\": %zu}%s\n",
                   r.single_seconds, r.sharded_seconds, r.single_hits,
                   r.sharded_hits,
                   rep + 1 < sharded_runs.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  },\n  \"zafar_cold_fit\": [\n");
    for (std::size_t i = 0; i < cold_fit_results.size(); ++i) {
      const ColdFitResult& m = cold_fit_results[i];
      std::fprintf(f, "    {\"id\": \"%s\", \"repetitions\": [\n",
                   m.id.c_str());
      for (std::size_t rep = 0; rep < m.runs.size(); ++rep) {
        std::fprintf(f,
                     "      {\"dense_fit_seconds\": %.9f, "
                     "\"sparse_fit_seconds\": %.9f}%s\n",
                     m.runs[rep].dense_fit_seconds,
                     m.runs[rep].sparse_fit_seconds,
                     rep + 1 < m.runs.size() ? "," : "");
      }
      std::fprintf(f, "    ]}%s\n",
                   i + 1 < cold_fit_results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote raw measurements: %s\n", json_path.c_str());
  }
  return 0;
}
