// Solver scaling: the CDCL MaxSAT core on SALIMI-shaped repair blocks of
// growing size, and the warm-started revised simplex vs cold solves on
// HARDT's equalized-odds LP across a 5-fold CV sweep.
//
//   solver_scaling [--seed n] [--reps n] [--folds n] [--sweeps n]
//                  [--json file]
//
//     --reps n    timing repetitions per point (default 5; the JSON keeps
//                 every repetition so tools/record_bench.py can take the
//                 median — the 1-vCPU bench-noise policy)
//     --folds n   CV folds per LP sweep (default 5, the paper's protocol)
//     --sweeps n  fold sweeps timed per LP repetition (default 400 — one
//                 4-var LP is microseconds, so the sweep is batched to get
//                 a stable measurement)
//     --json f    write raw per-repetition measurements to f; distill with
//                 tools/record_bench.py f > BENCH_solvers.json
//
// The MaxSAT instances mirror src/fair/pre/salimi.cc's per-A-block shape
// (unit soft presence preferences, 3-literal cross-product closure hards)
// with SALIMI's default options, so the time is the one an end-to-end
// repair sees per block. The human-readable tables always go to stdout.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "optim/maxsat.h"
#include "optim/simplex_lp.h"

using namespace fairbench;

namespace {

/// SALIMI-style repair block (salimi.cc's clause shape): presence variable
/// per (label, I-config) cell, soft unit preferences weighted by tuple
/// count (or weight-1 "avoid insert" for absent cells), hard cross-product
/// closure p(y1,i1) ∧ p(y2,i2) → p(y1,i2).
MaxSatInstance SalimiBlock(int ni, uint64_t seed) {
  const int ny = 2;
  Rng rng(seed);
  MaxSatInstance inst;
  inst.num_vars = ny * ni;
  auto var_of = [&](int y, int i) { return y * ni + i; };
  for (int y = 0; y < ny; ++y) {
    for (int i = 0; i < ni; ++i) {
      Clause soft;
      if (rng.Bernoulli(0.3)) {
        soft.literals = {{var_of(y, i), true}};  // absent: avoid inserting
        soft.weight = 1.0;
      } else {
        soft.literals = {{var_of(y, i), false}};  // present: keep the cell
        soft.weight = 1.0 + static_cast<double>(rng.UniformInt(9));
      }
      inst.clauses.push_back(std::move(soft));
    }
  }
  for (int y1 = 0; y1 < ny; ++y1) {
    for (int y2 = 0; y2 < ny; ++y2) {
      if (y1 == y2) continue;
      for (int i1 = 0; i1 < ni; ++i1) {
        for (int i2 = 0; i2 < ni; ++i2) {
          if (i1 == i2) continue;
          Clause hard;
          hard.hard = true;
          hard.literals = {{var_of(y1, i1), true},
                           {var_of(y2, i2), true},
                           {var_of(y1, i2), false}};
          inst.clauses.push_back(std::move(hard));
        }
      }
    }
  }
  return inst;
}

/// HARDT's equalized-odds LP (hardt.cc's construction) for one fold's
/// group statistics: 4 variables p_{s,yhat} in [0,1], 2 equality rows.
/// CV folds share ~(k-1)/k of their training rows, so per-fold group rates
/// differ by small deltas around the dataset's base rates — which is what
/// makes the previous fold's optimal basis a feasible warm start. The
/// ±0.005 jitter matches the standard error of a rate estimated from a few
/// thousand rows (e.g. adult's positives per fold), the regime HARDT's
/// group TPR/FPR statistics actually live in.
LinearProgram HardtFoldLp(uint64_t seed, std::size_t fold) {
  auto var = [](int s, int yhat) { return static_cast<std::size_t>(s * 2 + yhat); };
  Rng rng(seed);
  Rng jitter(DeriveSeed(seed, fold));
  auto delta = [&] { return jitter.Uniform(-0.005, 0.005); };
  const double tpr[2] = {rng.Uniform(0.55, 0.9) + delta(),
                         rng.Uniform(0.55, 0.9) + delta()};
  const double fpr[2] = {rng.Uniform(0.05, 0.45) + delta(),
                         rng.Uniform(0.05, 0.45) + delta()};
  const double pos[2] = {rng.Uniform(50, 200) + static_cast<double>(fold),
                         rng.Uniform(50, 200) - static_cast<double>(fold)};
  const double neg[2] = {rng.Uniform(50, 200) + static_cast<double>(fold),
                         rng.Uniform(50, 200) - static_cast<double>(fold)};
  const double total = pos[0] + neg[0] + pos[1] + neg[1];
  LinearProgram lp;
  lp.c.assign(4, 0.0);
  lp.upper.assign(4, 1.0);
  for (int s = 0; s < 2; ++s) {
    lp.c[var(s, 1)] += (-pos[s] * tpr[s] + neg[s] * fpr[s]) / total;
    lp.c[var(s, 0)] += (-pos[s] * (1.0 - tpr[s]) + neg[s] * (1.0 - fpr[s])) / total;
  }
  lp.a_eq = Matrix(2, 4, 0.0);
  lp.b_eq.assign(2, 0.0);
  lp.a_eq(0, var(0, 1)) = tpr[0];
  lp.a_eq(0, var(0, 0)) = 1.0 - tpr[0];
  lp.a_eq(0, var(1, 1)) = -tpr[1];
  lp.a_eq(0, var(1, 0)) = -(1.0 - tpr[1]);
  lp.a_eq(1, var(0, 1)) = fpr[0];
  lp.a_eq(1, var(0, 0)) = 1.0 - fpr[0];
  lp.a_eq(1, var(1, 1)) = -fpr[1];
  lp.a_eq(1, var(1, 0)) = -(1.0 - fpr[1]);
  return lp;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = 5;
  std::size_t folds = 5;
  std::size_t sweeps = 400;
  std::string json_path;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = bench::ParsePositiveCount("--reps", argv[++i]);
    } else if (std::strcmp(argv[i], "--folds") == 0 && i + 1 < argc) {
      folds = bench::ParsePositiveCount("--folds", argv[++i]);
    } else if (std::strcmp(argv[i], "--sweeps") == 0 && i + 1 < argc) {
      sweeps = bench::ParsePositiveCount("--sweeps", argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bench::BenchArgs args =
      bench::ParseArgs(static_cast<int>(rest.size()), rest.data());
  bench::PrintBanner("Solver scaling: CDCL MaxSAT + warm-started simplex",
                     args);
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif

  // --- MaxSAT: CDCL on growing SALIMI blocks. ---
  const std::vector<int> kBlockSizes = {6, 8, 12, 16, 24, 32};
  struct MaxSatRep {
    double seconds = 0.0;
    double weight = 0.0;
    bool optimal = false;
  };
  struct MaxSatPoint {
    int ni = 0;
    int vars = 0;
    std::size_t clauses = 0;
    std::vector<MaxSatRep> runs;
  };
  std::vector<MaxSatPoint> maxsat_points;
  std::printf("%-10s %6s %8s %12s %9s %7s\n", "salimi ni", "vars", "clauses",
              "cdcl ms", "weight", "proven");
  for (int ni : kBlockSizes) {
    MaxSatInstance inst = SalimiBlock(ni, DeriveSeed(args.seed, ni));
    MaxSatPoint point;
    point.ni = ni;
    point.vars = inst.num_vars;
    point.clauses = inst.clauses.size();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      MaxSatOptions options;
      options.seed = DeriveSeed(args.seed, static_cast<uint64_t>(ni) * 131 + rep);
      Timer timer;
      Result<MaxSatSolution> sol = SolveMaxSat(inst, options);
      MaxSatRep r;
      r.seconds = timer.ElapsedSeconds();
      if (!sol.ok()) {
        std::fprintf(stderr, "maxsat solve failed: %s\n",
                     sol.status().ToString().c_str());
        return 1;
      }
      r.weight = sol->satisfied_weight;
      r.optimal = sol->optimal;
      point.runs.push_back(r);
    }
    std::vector<double> seconds;
    for (const MaxSatRep& r : point.runs) seconds.push_back(r.seconds);
    const MaxSatRep& mid = point.runs[reps / 2];
    std::printf("%-10d %6d %8zu %11.3f  %9.0f %7s\n", ni, point.vars,
                point.clauses, Median(seconds) * 1e3, mid.weight,
                mid.optimal ? "yes" : "NO");
    maxsat_points.push_back(std::move(point));
  }

  // --- HARDT LP: warm-started vs cold across a CV fold sweep. ---
  //
  // Each sweep solves `folds` structurally identical 4-var LPs with
  // perturbed fold statistics, the exact pattern hardt.cc produces under
  // cross-validation. Cold re-runs phase 1 per fold; warm chains the
  // previous fold's optimal basis through an LpBasis.
  struct LpRep {
    double cold_seconds = 0.0;
    double warm_seconds = 0.0;
    bool objectives_bit_equal = true;
    std::size_t phase1_skips = 0;
    std::size_t solves = 0;
  };
  std::vector<LpRep> lp_runs;
  std::vector<LinearProgram> fold_lps;
  for (std::size_t f = 0; f < folds; ++f) {
    fold_lps.push_back(HardtFoldLp(args.seed ^ 0xa1d7ull, f));
  }
  for (std::size_t rep = 0; rep < reps; ++rep) {
    LpRep r;
    std::vector<double> cold_obj(folds, 0.0);
    Timer timer;
    for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
      for (std::size_t f = 0; f < folds; ++f) {
        Result<LpSolution> sol = SolveLp(fold_lps[f]);
        if (!sol.ok()) {
          std::fprintf(stderr, "cold LP failed: %s\n",
                       sol.status().ToString().c_str());
          return 1;
        }
        cold_obj[f] = sol->objective;
      }
    }
    r.cold_seconds = timer.ElapsedSeconds();

    timer.Restart();
    LpBasis basis;
    for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
      for (std::size_t f = 0; f < folds; ++f) {
        LpSolveStats stats;
        Result<LpSolution> sol = SolveLp(fold_lps[f], &basis, &stats);
        if (!sol.ok()) {
          std::fprintf(stderr, "warm LP failed: %s\n",
                       sol.status().ToString().c_str());
          return 1;
        }
        if (stats.phase1_skipped) ++r.phase1_skips;
        ++r.solves;
        if (std::memcmp(&sol->objective, &cold_obj[f], sizeof(double)) != 0) {
          r.objectives_bit_equal = false;
        }
      }
    }
    r.warm_seconds = timer.ElapsedSeconds();
    lp_runs.push_back(r);
  }
  {
    std::vector<double> cold_s, warm_s;
    for (const LpRep& r : lp_runs) {
      cold_s.push_back(r.cold_seconds);
      warm_s.push_back(r.warm_seconds);
    }
    const double cm = Median(cold_s);
    const double wm = Median(warm_s);
    const LpRep& mid = lp_runs[reps / 2];
    std::printf(
        "\nhardt LP (%zu folds x %zu sweeps per rep)\n"
        "%-24s %12s %12s %9s\n%-24s %11.3f  %11.3f  %8.1fx\n"
        "phase-1 skips: %zu of %zu warm solves; objectives bit-equal: %s\n",
        folds, sweeps, "", "cold ms", "warm ms", "speedup", "solve sweep",
        cm * 1e3, wm * 1e3, wm > 0.0 ? cm / wm : 0.0, mid.phase1_skips,
        mid.solves, mid.objectives_bit_equal ? "yes" : "NO");
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"source\": \"bench/solver_scaling\",\n"
                 "  \"seed\": %llu,\n  \"build_type\": \"%s\",\n"
                 "  \"maxsat\": [\n",
                 static_cast<unsigned long long>(args.seed), build_type);
    for (std::size_t i = 0; i < maxsat_points.size(); ++i) {
      const MaxSatPoint& p = maxsat_points[i];
      std::fprintf(f,
                   "    {\"ni\": %d, \"vars\": %d, \"clauses\": %zu, "
                   "\"repetitions\": [\n",
                   p.ni, p.vars, p.clauses);
      for (std::size_t rep = 0; rep < p.runs.size(); ++rep) {
        const MaxSatRep& r = p.runs[rep];
        std::fprintf(f,
                     "      {\"cdcl_seconds\": %.9f, \"cdcl_weight\": %.9f, "
                     "\"cdcl_optimal\": %s}%s\n",
                     r.seconds, r.weight, r.optimal ? "true" : "false",
                     rep + 1 < p.runs.size() ? "," : "");
      }
      std::fprintf(f, "    ]}%s\n", i + 1 < maxsat_points.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"hardt_lp\": {\n    \"folds\": %zu,\n"
                 "    \"sweeps_per_rep\": %zu,\n    \"repetitions\": [\n",
                 folds, sweeps);
    for (std::size_t rep = 0; rep < lp_runs.size(); ++rep) {
      const LpRep& r = lp_runs[rep];
      std::fprintf(f,
                   "      {\"cold_seconds\": %.9f, \"warm_seconds\": %.9f, "
                   "\"objectives_bit_equal\": %s, \"phase1_skips\": %zu, "
                   "\"warm_solves\": %zu}%s\n",
                   r.cold_seconds, r.warm_seconds,
                   r.objectives_bit_equal ? "true" : "false", r.phase1_skips,
                   r.solves, rep + 1 < lp_runs.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote raw measurements: %s\n", json_path.c_str());
  }
  return 0;
}
