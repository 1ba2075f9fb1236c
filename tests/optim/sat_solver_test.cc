#include "optim/sat/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"

namespace fairbench::sat {
namespace {

Lit Pos(Var v) { return MakeLit(v, false); }
Lit Neg(Var v) { return MakeLit(v, true); }

// Brute-force oracle: does any assignment satisfy all clauses?
bool BruteForceSat(int n, const std::vector<std::vector<Lit>>& clauses) {
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    bool all = true;
    for (const auto& c : clauses) {
      bool sat = false;
      for (Lit p : c) {
        const bool v = (mask >> VarOf(p)) & 1u;
        if (v != Sign(p)) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TEST(SatSolverTest, TrivialSatAndModel) {
  Solver s;
  Var a = s.NewVar();
  Var b = s.NewVar();
  ASSERT_TRUE(s.AddClause({Pos(a), Pos(b)}));
  ASSERT_TRUE(s.AddClause({Neg(a)}));
  ASSERT_EQ(s.Solve(), Solver::Outcome::kSat);
  EXPECT_EQ(s.ModelValue(a), LBool::kFalse);
  EXPECT_EQ(s.ModelValue(b), LBool::kTrue);
}

TEST(SatSolverTest, ContradictoryUnitsAreUnsat) {
  Solver s;
  Var a = s.NewVar();
  ASSERT_TRUE(s.AddClause({Pos(a)}));
  EXPECT_FALSE(s.AddClause({Neg(a)}));
  EXPECT_FALSE(s.Okay());
  EXPECT_EQ(s.Solve(), Solver::Outcome::kUnsat);
  EXPECT_TRUE(s.FailedAssumptions().empty());
}

TEST(SatSolverTest, PigeonholeIsUnsat) {
  // 4 pigeons into 3 holes: classic small UNSAT instance that requires
  // real search (not just unit propagation).
  constexpr int kPigeons = 4;
  constexpr int kHoles = 3;
  Solver s;
  Var v[kPigeons][kHoles];
  for (int p = 0; p < kPigeons; ++p) {
    for (int h = 0; h < kHoles; ++h) v[p][h] = s.NewVar();
  }
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<Lit> at_least;
    for (int h = 0; h < kHoles; ++h) at_least.push_back(Pos(v[p][h]));
    ASSERT_TRUE(s.AddClause(at_least));
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        ASSERT_TRUE(s.AddClause({Neg(v[p1][h]), Neg(v[p2][h])}));
      }
    }
  }
  EXPECT_EQ(s.Solve(), Solver::Outcome::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0);
}

TEST(SatSolverTest, RandomThreeSatAgreesWithBruteForce) {
  // Random 3-SAT near the phase transition: the solver's verdict must
  // match exhaustive enumeration, and kSat models must actually satisfy.
  Rng rng(DeriveSeed(0x5a75ull, 7));
  int sat_count = 0;
  int unsat_count = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int n = 6 + static_cast<int>(rng.UniformInt(5));  // 6..10 vars
    const int m = static_cast<int>(4.3 * n);
    std::vector<std::vector<Lit>> clauses;
    for (int ci = 0; ci < m; ++ci) {
      std::vector<Lit> c;
      for (int k = 0; k < 3; ++k) {
        c.push_back(MakeLit(static_cast<Var>(rng.UniformInt(n)),
                            rng.Bernoulli(0.5)));
      }
      clauses.push_back(std::move(c));
    }

    Solver s(SolverOptions{.seed = DeriveSeed(99, static_cast<uint64_t>(trial))});
    for (int i = 0; i < n; ++i) s.NewVar();
    bool root_unsat = false;
    for (const auto& c : clauses) {
      if (!s.AddClause(c)) root_unsat = true;
    }
    const bool expect_sat = BruteForceSat(n, clauses);
    if (root_unsat) {
      ASSERT_FALSE(expect_sat) << "trial " << trial;
      ++unsat_count;
      continue;
    }
    Solver::Outcome out = s.Solve();
    ASSERT_NE(out, Solver::Outcome::kUnknown);
    ASSERT_EQ(out == Solver::Outcome::kSat, expect_sat) << "trial " << trial;
    if (out == Solver::Outcome::kSat) {
      ++sat_count;
      for (const auto& c : clauses) {
        bool sat = false;
        for (Lit p : c) {
          if (s.ModelValue(VarOf(p)) == (Sign(p) ? LBool::kFalse : LBool::kTrue)) {
            sat = true;
            break;
          }
        }
        EXPECT_TRUE(sat) << "model violates a clause in trial " << trial;
      }
    } else {
      ++unsat_count;
    }
  }
  // Near the phase transition both outcomes must actually occur.
  EXPECT_GT(sat_count, 0);
  EXPECT_GT(unsat_count, 0);
}

TEST(SatSolverTest, AssumptionsYieldCore) {
  // a1..a4 selectable constraints; a1 ∧ a2 is inconsistent, the rest fine.
  Solver s;
  Var x = s.NewVar();
  Var a1 = s.NewVar();
  Var a2 = s.NewVar();
  Var a3 = s.NewVar();
  ASSERT_TRUE(s.AddClause({Neg(a1), Pos(x)}));   // a1 -> x
  ASSERT_TRUE(s.AddClause({Neg(a2), Neg(x)}));   // a2 -> !x
  ASSERT_TRUE(s.AddClause({Neg(a3), Pos(x)}));   // a3 -> x (compatible)

  ASSERT_EQ(s.Solve({Pos(a1), Pos(a2), Pos(a3)}), Solver::Outcome::kUnsat);
  std::vector<Lit> core = s.FailedAssumptions();
  ASSERT_FALSE(core.empty());
  // The core must be a subset of the assumptions and must exclude at least
  // one of them (a3 is never necessary).
  for (Lit p : core) {
    EXPECT_TRUE(p == Pos(a1) || p == Pos(a2) || p == Pos(a3));
  }
  auto has = [&](Lit p) {
    return std::find(core.begin(), core.end(), p) != core.end();
  };
  EXPECT_TRUE(has(Pos(a1)));
  EXPECT_TRUE(has(Pos(a2)));

  // Dropping one core member restores satisfiability (incremental reuse).
  EXPECT_EQ(s.Solve({Pos(a1), Pos(a3)}), Solver::Outcome::kSat);
  EXPECT_EQ(s.ModelValue(x), LBool::kTrue);
}

TEST(SatSolverTest, IncrementalClauseAddition) {
  Solver s;
  Var a = s.NewVar();
  Var b = s.NewVar();
  ASSERT_TRUE(s.AddClause({Pos(a), Pos(b)}));
  ASSERT_EQ(s.Solve(), Solver::Outcome::kSat);
  ASSERT_TRUE(s.AddClause({Neg(a)}));
  ASSERT_EQ(s.Solve(), Solver::Outcome::kSat);
  EXPECT_EQ(s.ModelValue(b), LBool::kTrue);
  // Adding the final unit propagates at the root and falsifies (a ∨ b):
  // AddClause reports the contradiction eagerly by returning false.
  EXPECT_FALSE(s.AddClause({Neg(b)}));
  EXPECT_FALSE(s.Okay());
  EXPECT_EQ(s.Solve(), Solver::Outcome::kUnsat);
}

TEST(SatSolverTest, ConflictBudgetReturnsUnknownAndStaysUsable) {
  // A hard random instance with a tiny budget must come back kUnknown,
  // then succeed when re-solved (budget is per call).
  Rng rng(41);
  const int n = 60;
  Solver s;
  for (int i = 0; i < n; ++i) s.NewVar();
  for (int ci = 0; ci < static_cast<int>(4.0 * n); ++ci) {
    std::vector<Lit> c;
    for (int k = 0; k < 3; ++k) {
      c.push_back(MakeLit(static_cast<Var>(rng.UniformInt(n)), rng.Bernoulli(0.5)));
    }
    ASSERT_TRUE(s.AddClause(c));
  }
  Solver::Outcome first = s.Solve({}, /*max_conflicts=*/1);
  // With 1 conflict of budget the solver almost surely can't finish; if it
  // did, the instance was easy and that's fine too.
  if (first == Solver::Outcome::kUnknown) {
    EXPECT_EQ(s.stats().conflicts, 1);
    for (int round = 0; round < 10000; ++round) {
      const int64_t before = s.stats().conflicts;
      Solver::Outcome again = s.Solve({}, /*max_conflicts=*/1);
      EXPECT_LE(s.stats().conflicts - before, 1) << "round " << round;
      if (again != Solver::Outcome::kUnknown) return;  // finished
    }
    FAIL() << "solver made no progress across repeated budgeted calls";
  }
}

TEST(SatSolverTest, DeterministicForFixedSeed) {
  auto run = [](uint64_t seed) {
    Rng rng(17);
    Solver s(SolverOptions{.seed = seed});
    const int n = 40;
    for (int i = 0; i < n; ++i) s.NewVar();
    for (int ci = 0; ci < 160; ++ci) {
      std::vector<Lit> c;
      for (int k = 0; k < 3; ++k) {
        c.push_back(MakeLit(static_cast<Var>(rng.UniformInt(n)), rng.Bernoulli(0.5)));
      }
      s.AddClause(c);
    }
    std::vector<int> model;
    if (s.Solve() == Solver::Outcome::kSat) {
      for (int i = 0; i < n; ++i) {
        model.push_back(s.ModelValue(i) == LBool::kTrue ? 1 : 0);
      }
    }
    return std::make_pair(model, s.stats().conflicts);
  };
  auto [m1, c1] = run(123);
  auto [m2, c2] = run(123);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(c1, c2);
}

TEST(SatSolverTest, RestartAndLearnCountersAdvance) {
  // Pigeonhole 7-into-6 forces plenty of conflicts; the Luby schedule must
  // trigger restarts and clause learning must be visible in stats().
  constexpr int kPigeons = 7;
  constexpr int kHoles = 6;
  SolverOptions opts;
  opts.restart_first = 10;  // restart early so the counter moves
  Solver s(opts);
  std::vector<std::vector<Var>> v(kPigeons, std::vector<Var>(kHoles));
  for (auto& row : v) {
    for (auto& var : row) var = s.NewVar();
  }
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < kHoles; ++h) c.push_back(Pos(v[p][h]));
    ASSERT_TRUE(s.AddClause(c));
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        ASSERT_TRUE(s.AddClause({Neg(v[p1][h]), Neg(v[p2][h])}));
      }
    }
  }
  ASSERT_EQ(s.Solve(), Solver::Outcome::kUnsat);
  EXPECT_GT(s.stats().conflicts, 10);
  EXPECT_GT(s.stats().restarts, 0);
  EXPECT_GT(s.stats().learned_clauses, 0);
  EXPECT_GT(s.stats().propagations, 0);
}

}  // namespace
}  // namespace fairbench::sat
