// Reproduces Fig 11(a-c): runtime overhead over LR as the number of data
// points grows, on the Adult generator (the paper sweeps 1K..40K rows).
// Points are the paper's, scaled by --scale.
//
// The sweep includes SALIMI, whose per-block MaxSAT repair is the step the
// paper blames for its runtime: the minimal repair is NP-hard. The CDCL
// core solves every block to proven optimality (see BENCH_solvers.json),
// so all SALIMI points complete.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "core/scalability.h"

int main(int argc, char** argv) {
  using namespace fairbench;
  std::string json_path;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bench::BenchArgs args =
      bench::ParseArgs(static_cast<int>(rest.size()), rest.data());
  bench::PrintBanner("Fig 11(a-c): runtime vs data size (Adult)", args);

  std::vector<std::size_t> sizes;
  for (std::size_t base : {1000, 2000, 5000, 10000, 20000, 40000}) {
    sizes.push_back(bench::ScaledRows(base, args.scale));
  }
  ScalabilityOptions options;
  options.seed = args.seed;
  // Timing harness: serial unless --jobs asks otherwise, so the absolute
  // wall-clock numbers stay paper-comparable by default.
  options.threads = args.jobs == 0 ? 1 : args.jobs;
  Result<std::vector<RuntimeCurve>> curves =
      MeasureRuntimeVsSize(AdultConfig(), sizes, AllApproachIds(), options);
  if (!curves.ok()) {
    std::fprintf(stderr, "failed: %s\n", curves.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", FormatRuntimeTable(curves.value(), "n").c_str());
  std::printf("values are fit-time overhead over the LR baseline (LR row "
              "shows absolute time)\n");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
#ifdef NDEBUG
    const char* build_type = "release";
#else
    const char* build_type = "debug";
#endif
    std::fprintf(f,
                 "{\n  \"source\": \"bench/fig11_scal_size\",\n"
                 "  \"seed\": %llu,\n  \"scale\": %.6f,\n"
                 "  \"build_type\": \"%s\",\n  \"curves\": [\n",
                 static_cast<unsigned long long>(args.seed), args.scale,
                 build_type);
    const std::vector<RuntimeCurve>& cs = curves.value();
    for (std::size_t c = 0; c < cs.size(); ++c) {
      std::fprintf(f, "    {\"id\": \"%s\", \"points\": [\n",
                   cs[c].id.c_str());
      for (std::size_t p = 0; p < cs[c].points.size(); ++p) {
        const RuntimePoint& pt = cs[c].points[p];
        std::fprintf(f,
                     "      {\"n\": %zu, \"ok\": %s, \"total_seconds\": "
                     "%.9f, \"overhead_seconds\": %.9f}%s\n",
                     pt.x, pt.ok ? "true" : "false", pt.total_seconds,
                     pt.overhead_seconds,
                     p + 1 < cs[c].points.size() ? "," : "");
      }
      std::fprintf(f, "    ]}%s\n", c + 1 < cs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote raw measurements: %s\n", json_path.c_str());
  }
  return 0;
}
