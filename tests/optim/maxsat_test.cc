#include "optim/maxsat.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace fairbench {
namespace {

Clause Soft(std::vector<Literal> lits, double weight) {
  Clause c;
  c.literals = std::move(lits);
  c.weight = weight;
  return c;
}

Clause Hard(std::vector<Literal> lits) {
  Clause c;
  c.literals = std::move(lits);
  c.hard = true;
  return c;
}

TEST(MaxSatTest, SolvesTinyInstanceExactly) {
  // x0 (weight 3) vs !x0 (weight 1): pick x0 = true.
  MaxSatInstance inst;
  inst.num_vars = 1;
  inst.clauses.push_back(Soft({{0, false}}, 3.0));
  inst.clauses.push_back(Soft({{0, true}}, 1.0));
  Result<MaxSatSolution> sol = SolveMaxSat(inst);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->assignment[0]);
  EXPECT_DOUBLE_EQ(sol->satisfied_weight, 3.0);
}

TEST(MaxSatTest, HardClausesDominateSoft) {
  // Hard clause forces !x0 even though soft prefers x0 with huge weight.
  MaxSatInstance inst;
  inst.num_vars = 1;
  inst.clauses.push_back(Hard({{0, true}}));
  inst.clauses.push_back(Soft({{0, false}}, 1000.0));
  Result<MaxSatSolution> sol = SolveMaxSat(inst);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->hard_satisfied);
  EXPECT_FALSE(sol->assignment[0]);
}

TEST(MaxSatTest, ExactSolverFindsOptimum) {
  // Weighted 2-SAT-ish instance with known optimum. Vars x0..x3.
  MaxSatInstance inst;
  inst.num_vars = 4;
  inst.clauses.push_back(Soft({{0, false}, {1, false}}, 5.0));
  inst.clauses.push_back(Soft({{0, true}}, 4.0));
  inst.clauses.push_back(Soft({{1, true}}, 4.0));
  inst.clauses.push_back(Soft({{2, false}, {3, true}}, 2.0));
  inst.clauses.push_back(Hard({{2, false}}));
  Result<MaxSatSolution> sol = SolveMaxSat(inst);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->hard_satisfied);
  // Optimum: x2=true (hard), x3=true (satisfies clause 4), exactly one of
  // x0/x1 true -> weight 5 + 4 + 2 = 11.
  EXPECT_DOUBLE_EQ(sol->satisfied_weight, 11.0);
}

TEST(MaxSatTest, LocalSearchSatisfiesCrossProductConstraints) {
  // A SALIMI-style block with 2 labels x 8 i-configs: the hard closure
  // clauses must be satisfied by a proven optimum.
  MaxSatInstance inst;
  const int ny = 2;
  const int ni = 8;
  inst.num_vars = ny * ni;
  auto var = [&](int y, int i) { return y * ni + i; };
  Rng rng(9);
  for (int y = 0; y < ny; ++y) {
    for (int i = 0; i < ni; ++i) {
      const bool present = rng.Bernoulli(0.6);
      inst.clauses.push_back(
          present ? Soft({{var(y, i), false}},
                         1.0 + static_cast<double>(rng.UniformInt(10)))
                  : Soft({{var(y, i), true}}, 1.0));
    }
  }
  for (int y1 = 0; y1 < ny; ++y1) {
    for (int y2 = 0; y2 < ny; ++y2) {
      if (y1 == y2) continue;
      for (int i1 = 0; i1 < ni; ++i1) {
        for (int i2 = 0; i2 < ni; ++i2) {
          if (i1 == i2) continue;
          inst.clauses.push_back(Hard({{var(y1, i1), true},
                                       {var(y2, i2), true},
                                       {var(y1, i2), false}}));
        }
      }
    }
  }
  Result<MaxSatSolution> sol = SolveMaxSat(inst);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->hard_satisfied);
  EXPECT_TRUE(sol->optimal);
}

TEST(MaxSatTest, EmptyInstanceIsTriviallyOptimal) {
  MaxSatInstance inst;
  inst.num_vars = 0;
  Result<MaxSatSolution> sol = SolveMaxSat(inst);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->hard_satisfied);
  EXPECT_DOUBLE_EQ(sol->satisfied_weight, 0.0);
}

TEST(MaxSatTest, RejectsOutOfRangeLiterals) {
  MaxSatInstance inst;
  inst.num_vars = 1;
  inst.clauses.push_back(Soft({{3, false}}, 1.0));
  EXPECT_EQ(SolveMaxSat(inst).status().code(), StatusCode::kOutOfRange);
}

TEST(MaxSatTest, DeterministicForFixedSeed) {
  MaxSatInstance inst;
  inst.num_vars = 30;
  Rng rng(11);
  for (int c = 0; c < 60; ++c) {
    Clause clause;
    for (int l = 0; l < 3; ++l) {
      clause.literals.push_back({static_cast<int>(rng.UniformInt(30)),
                                 rng.Bernoulli(0.5)});
    }
    clause.weight = 1.0 + static_cast<double>(rng.UniformInt(5));
    inst.clauses.push_back(clause);
  }
  const MaxSatSolution a = SolveMaxSat(inst).value();
  const MaxSatSolution b = SolveMaxSat(inst).value();
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.satisfied_weight, b.satisfied_weight);
}

}  // namespace
}  // namespace fairbench
