#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "optim/maxsat.h"

namespace fairbench {
namespace {

struct Enumerated {
  double best_score = -std::numeric_limits<double>::infinity();
  std::vector<bool> best_assignment;
  int optima_count = 0;
  bool hard_satisfiable = false;
};

// Exhaustive oracle: a hard penalty dominates every soft weight, so when
// the hard clauses are satisfiable best_score is the optimal soft weight.
// Counts how many assignments attain the optimum so tests know when the
// optimum is unique.
Enumerated Enumerate(const MaxSatInstance& inst) {
  double soft_total = 0.0;
  for (const Clause& c : inst.clauses) {
    if (!c.hard) soft_total += std::fabs(c.weight);
  }
  const double hard_penalty = soft_total + 1.0;
  Enumerated out;
  const int n = inst.num_vars;
  std::vector<bool> assign(static_cast<std::size_t>(n), false);
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    for (int i = 0; i < n; ++i) assign[static_cast<std::size_t>(i)] = (mask >> i) & 1u;
    double score = 0.0;
    bool hard_ok = true;
    for (const Clause& c : inst.clauses) {
      bool sat = false;
      for (const Literal& l : c.literals) {
        if (assign[static_cast<std::size_t>(l.var)] != l.negated) {
          sat = true;
          break;
        }
      }
      if (c.hard) {
        if (!sat) {
          score -= hard_penalty;
          hard_ok = false;
        }
      } else if (sat) {
        score += c.weight;
      }
    }
    if (hard_ok) out.hard_satisfiable = true;
    if (score > out.best_score + 1e-12) {
      out.best_score = score;
      out.best_assignment = assign;
      out.optima_count = 1;
    } else if (score > out.best_score - 1e-12) {
      ++out.optima_count;
    }
  }
  return out;
}

MaxSatInstance RandomInstance(Rng& rng, int n, bool allow_negative) {
  MaxSatInstance inst;
  inst.num_vars = n;
  const int soft = 2 + static_cast<int>(rng.UniformInt(static_cast<uint64_t>(2 * n)));
  const int hard = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n + 1)));
  for (int ci = 0; ci < soft + hard; ++ci) {
    Clause c;
    const int len = 1 + static_cast<int>(rng.UniformInt(3));
    for (int k = 0; k < len; ++k) {
      c.literals.push_back({static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n))),
                            rng.Bernoulli(0.5)});
    }
    if (ci < soft) {
      c.weight = static_cast<double>(1 + rng.UniformInt(5));
      if (allow_negative && rng.Bernoulli(0.2)) c.weight = -c.weight;
    } else {
      c.hard = true;
    }
    inst.clauses.push_back(std::move(c));
  }
  return inst;
}

// SALIMI-style repair block: presence variables per (label, config) with
// unit softs and 3-literal cross-product closure hards (salimi.cc shape).
MaxSatInstance SalimiBlock(int ni, Rng& rng) {
  const int ny = 2;
  MaxSatInstance inst;
  inst.num_vars = ny * ni;
  auto var_of = [&](int y, int i) { return y * ni + i; };
  for (int y = 0; y < ny; ++y) {
    for (int i = 0; i < ni; ++i) {
      Clause soft;
      soft.weight = 1.0 + static_cast<double>(rng.UniformInt(9));
      soft.literals = {{var_of(y, i), rng.Bernoulli(0.3)}};
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

TEST(MaxSatDifferentialTest, CdclMatchesEnumerationOnSmallInstances) {
  Rng rng(DeriveSeed(0xd1ffull, 1));
  int unique_checked = 0;
  int unsat_checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(rng.UniformInt(10));  // 3..12
    MaxSatInstance inst = RandomInstance(rng, n, /*allow_negative=*/trial % 3 == 0);

    MaxSatOptions opts;
    opts.seed = 23 + trial;
    auto cdcl = SolveMaxSat(inst, opts);
    ASSERT_TRUE(cdcl.ok());
    ASSERT_EQ(cdcl->assignment.size(), static_cast<std::size_t>(n));

    Enumerated oracle = Enumerate(inst);
    EXPECT_EQ(cdcl->hard_satisfied, oracle.hard_satisfiable) << "trial " << trial;
    if (!oracle.hard_satisfiable) {
      EXPECT_FALSE(cdcl->optimal) << "trial " << trial;
      ++unsat_checked;
      continue;
    }
    EXPECT_TRUE(cdcl->optimal) << "trial " << trial;
    // Identical optima: weights are integers, so sums are exact.
    EXPECT_DOUBLE_EQ(cdcl->satisfied_weight, oracle.best_score)
        << "trial " << trial;
    if (oracle.optima_count == 1) {
      EXPECT_EQ(cdcl->assignment, oracle.best_assignment) << "trial " << trial;
      ++unique_checked;
    }
  }
  // Both branches must actually run.
  EXPECT_GT(unique_checked, 20);
  EXPECT_GT(unsat_checked, 0);
}

TEST(MaxSatDifferentialTest, SalimiBlocksSolvedExactly) {
  Rng rng(DeriveSeed(0xd1ffull, 3));
  for (int ni : {4, 8, 12}) {
    MaxSatInstance inst = SalimiBlock(ni, rng);
    auto cdcl = SolveMaxSat(inst);
    ASSERT_TRUE(cdcl.ok());
    EXPECT_TRUE(cdcl->hard_satisfied);
    EXPECT_TRUE(cdcl->optimal);
    if (inst.num_vars <= 16) {
      EXPECT_DOUBLE_EQ(cdcl->satisfied_weight, Enumerate(inst).best_score)
          << "ni " << ni;
    }
  }
}

TEST(MaxSatDifferentialTest, SeedChainsAreReproducibleAndIndependent) {
  Rng rng(DeriveSeed(0xd1ffull, 4));
  MaxSatInstance inst = RandomInstance(rng, 30, /*allow_negative=*/false);

  // Same seed => identical output.
  MaxSatOptions opts;
  opts.seed = 77;
  auto a = SolveMaxSat(inst, opts);
  auto b = SolveMaxSat(inst, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_DOUBLE_EQ(a->satisfied_weight, b->satisfied_weight);

  // Distinct DeriveSeed indices address distinct streams: per-block seeds
  // in salimi.cc are DeriveSeed(base, akey), which must not collide.
  EXPECT_NE(DeriveSeed(77, 0), DeriveSeed(77, 1));
}

// Random 3-SAT hard clauses at clause/variable ratio 4, kept satisfiable
// by a planted assignment, plus one weighted soft unit per variable. The
// solver needs real conflicts here. SALIMI blocks are Horn (every closure
// clause has one positive literal) and unit propagation finds their cores,
// so they spend no conflicts and cannot tell a per-call budget from a
// per-search one.
MaxSatInstance PlantedInstance(int n, Rng& rng) {
  MaxSatInstance inst;
  inst.num_vars = n;
  std::vector<bool> planted(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) planted[static_cast<std::size_t>(i)] = rng.Bernoulli(0.5);
  for (int i = 0; i < n; ++i) {
    Clause soft;
    soft.literals = {{i, rng.Bernoulli(0.5)}};
    soft.weight = 1.0 + static_cast<double>(rng.UniformInt(9));
    inst.clauses.push_back(std::move(soft));
  }
  for (int k = 0; k < 4 * n; ++k) {
    Clause hard;
    hard.hard = true;
    bool planted_sat = false;
    for (int l = 0; l < 3; ++l) {
      const int var = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
      hard.literals.push_back({var, rng.Bernoulli(0.5)});
      planted_sat = planted_sat ||
                    planted[static_cast<std::size_t>(var)] != hard.literals.back().negated;
    }
    if (!planted_sat) hard.literals[0].negated = !hard.literals[0].negated;
    inst.clauses.push_back(std::move(hard));
  }
  return inst;
}

#if FAIRBENCH_OBS_ENABLED
// Solves with the given conflict budget and reports the conflicts the
// whole search spent, read from the optim.sat.conflicts counter.
struct BudgetedSolve {
  MaxSatSolution solution;
  uint64_t conflicts = 0;
};

BudgetedSolve SolveWithBudget(const MaxSatInstance& inst, int64_t budget) {
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("optim.sat.conflicts");
  obs::SetMetricsEnabled(true);
  const uint64_t before = counter.value();
  MaxSatOptions opts;
  opts.max_conflicts = budget;
  Result<MaxSatSolution> sol = SolveMaxSat(inst, opts);
  obs::SetMetricsEnabled(false);
  EXPECT_TRUE(sol.ok());
  return {sol.ok() ? *sol : MaxSatSolution{}, counter.value() - before};
}

TEST(MaxSatDifferentialTest, ConflictBudgetCoversTheWholeSearch) {
  Rng rng(DeriveSeed(0xd1ffull, 5));
  const MaxSatInstance inst = PlantedInstance(30, rng);
  const BudgetedSolve full = SolveWithBudget(inst, -1);
  ASSERT_TRUE(full.solution.optimal);
  ASSERT_GT(full.conflicts, 20u);

  for (int64_t budget : {int64_t{1}, int64_t{3}, int64_t{10},
                         static_cast<int64_t>(full.conflicts / 2),
                         static_cast<int64_t>(full.conflicts - 1)}) {
    const BudgetedSolve cut = SolveWithBudget(inst, budget);
    EXPECT_LE(cut.conflicts, static_cast<uint64_t>(budget))
        << "budget " << budget;
    EXPECT_FALSE(cut.solution.optimal) << "budget " << budget;
  }
}
#endif  // FAIRBENCH_OBS_ENABLED

TEST(MaxSatDifferentialTest, BudgetCutAfterFirstModelKeepsTheBestIncumbent) {
  Rng rng(DeriveSeed(0xd1ffull, 6));
  const MaxSatInstance inst = PlantedInstance(30, rng);
  auto optimum = SolveMaxSat(inst);
  ASSERT_TRUE(optimum.ok());
  ASSERT_TRUE(optimum->optimal);

  // A larger budget replays the same search further, so the best model so
  // far can only improve. Budgets below the first model's cost return
  // none; every budget here lies past it and short of the proof.
  double previous = -1.0;
  for (int64_t budget : {10, 20, 40}) {
    MaxSatOptions opts;
    opts.max_conflicts = budget;
    auto cut = SolveMaxSat(inst, opts);
    ASSERT_TRUE(cut.ok());
    ASSERT_TRUE(cut->hard_satisfied) << "budget " << budget;
    EXPECT_FALSE(cut->optimal) << "budget " << budget;
    EXPECT_LE(cut->satisfied_weight, optimum->satisfied_weight);
    EXPECT_GE(cut->satisfied_weight, previous) << "budget " << budget;
    previous = cut->satisfied_weight;
    for (const Clause& c : inst.clauses) {
      if (!c.hard) continue;
      bool sat = false;
      for (const Literal& l : c.literals) {
        sat = sat || cut->assignment[static_cast<std::size_t>(l.var)] != l.negated;
      }
      EXPECT_TRUE(sat) << "budget " << budget;
    }
  }
}

TEST(MaxSatDifferentialTest, NoModelReportsHardUnsatisfied) {
  // A budget of zero conflicts runs out before the first model.
  Rng rng(DeriveSeed(0xd1ffull, 7));
  const MaxSatInstance block = SalimiBlock(8, rng);
  MaxSatOptions opts;
  opts.max_conflicts = 0;
  auto starved = SolveMaxSat(block, opts);
  ASSERT_TRUE(starved.ok());
  EXPECT_FALSE(starved->hard_satisfied);
  EXPECT_FALSE(starved->optimal);
  EXPECT_EQ(starved->assignment,
            std::vector<bool>(static_cast<std::size_t>(block.num_vars), false));
  EXPECT_DOUBLE_EQ(starved->satisfied_weight, 0.0);

  // Contradictory hard clauses: x0 and !x0.
  MaxSatInstance unsat;
  unsat.num_vars = 2;
  unsat.clauses.push_back({{{0, false}}, 1.0, true});
  unsat.clauses.push_back({{{0, true}}, 1.0, true});
  unsat.clauses.push_back({{{1, false}}, 4.0, false});
  auto none = SolveMaxSat(unsat);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->hard_satisfied);
  EXPECT_FALSE(none->optimal);
  EXPECT_EQ(none->assignment.size(), 2u);
  EXPECT_DOUBLE_EQ(none->satisfied_weight, 0.0);
}

}  // namespace
}  // namespace fairbench
