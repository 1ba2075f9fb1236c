#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "lp_tableau_oracle.h"
#include "optim/simplex_lp.h"

namespace fairbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LpEdgeTest, DegenerateTiesTerminateAtTheOptimum) {
  // The vertex (1,1) is degenerate: three constraints active on two
  // variables, so ratio tests tie and several pivots take zero-length
  // steps. Bland's fallback guarantees we still terminate.
  LinearProgram lp;
  lp.c = {-1.0, -1.0};
  lp.a_ub = Matrix(3, 2, 0.0);
  lp.a_ub(0, 0) = 1.0;
  lp.a_ub(1, 1) = 1.0;
  lp.a_ub(2, 0) = 1.0;
  lp.a_ub(2, 1) = 1.0;
  lp.b_ub = {1.0, 1.0, 2.0};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, -2.0, 1e-9);
  EXPECT_NEAR(sol->x[0], 1.0, 1e-9);
  EXPECT_NEAR(sol->x[1], 1.0, 1e-9);
}

TEST(LpEdgeTest, BealeCyclingInstanceTerminates) {
  // Beale's classic example cycles forever under naive Dantzig pricing
  // with a fixed tie-break; the Bland fallback must break the cycle.
  // Known optimum: x = (1/25, 0, 1, 0) with objective -1/20.
  LinearProgram lp;
  lp.c = {-0.75, 150.0, -0.02, 6.0};
  lp.a_ub = Matrix(3, 4, 0.0);
  lp.a_ub(0, 0) = 0.25;
  lp.a_ub(0, 1) = -60.0;
  lp.a_ub(0, 2) = -1.0 / 25.0;
  lp.a_ub(0, 3) = 9.0;
  lp.a_ub(1, 0) = 0.5;
  lp.a_ub(1, 1) = -90.0;
  lp.a_ub(1, 2) = -1.0 / 50.0;
  lp.a_ub(1, 3) = 3.0;
  lp.a_ub(2, 2) = 1.0;
  lp.b_ub = {0.0, 0.0, 1.0};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, -0.05, 1e-9);

  // And the tableau oracle agrees.
  auto oracle = SolveLpTableau(lp);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(sol->objective, oracle->objective, 1e-9);
}

TEST(LpEdgeTest, FiniteUpperBoundsActiveAtOptimum) {
  // No rows at all: the optimum saturates both upper bounds, and the
  // reported values are exactly the bounds (the solver snaps tolerance
  // residue into the box).
  LinearProgram lp;
  lp.c = {-1.0, -2.0};
  lp.upper = {0.75, 0.25};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->x[0], 0.75);
  EXPECT_EQ(sol->x[1], 0.25);
  EXPECT_DOUBLE_EQ(sol->objective, -1.25);

  // With a row binding one variable below its bound, the other still
  // rides its upper bound.
  LinearProgram lp2;
  lp2.c = {-1.0, -2.0};
  lp2.upper = {0.75, 0.25};
  lp2.a_ub = Matrix(1, 2, 0.0);
  lp2.a_ub(0, 0) = 1.0;
  lp2.b_ub = {0.5};
  auto sol2 = SolveLp(lp2);
  ASSERT_TRUE(sol2.ok());
  EXPECT_NEAR(sol2->x[0], 0.5, 1e-9);
  EXPECT_EQ(sol2->x[1], 0.25);
}

TEST(LpEdgeTest, DiscriminatesInfeasibleFromUnbounded) {
  // Infeasible via inequality + box: x1 + x2 >= 3 is impossible in [0,1]^2.
  LinearProgram infeasible;
  infeasible.c = {1.0, 1.0};
  infeasible.upper = {1.0, 1.0};
  infeasible.a_ub = Matrix(1, 2, 0.0);
  infeasible.a_ub(0, 0) = -1.0;
  infeasible.a_ub(0, 1) = -1.0;
  infeasible.b_ub = {-3.0};
  auto r1 = SolveLp(infeasible);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kNoSolution);

  // Infeasible via equality + box.
  LinearProgram infeasible_eq;
  infeasible_eq.c = {1.0, 1.0};
  infeasible_eq.upper = {1.0, 1.0};
  infeasible_eq.a_eq = Matrix(1, 2, 0.0);
  infeasible_eq.a_eq(0, 0) = 1.0;
  infeasible_eq.a_eq(0, 1) = 1.0;
  infeasible_eq.b_eq = {5.0};
  auto r2 = SolveLp(infeasible_eq);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kNoSolution);

  // Unbounded: x1 has negative cost, no upper bound, and the only row
  // constrains x2 alone.
  LinearProgram unbounded;
  unbounded.c = {-1.0, 1.0};
  unbounded.a_ub = Matrix(1, 2, 0.0);
  unbounded.a_ub(0, 1) = 1.0;
  unbounded.b_ub = {4.0};
  auto r3 = SolveLp(unbounded);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kNoConvergence);

  // Same feasible region, bounded objective: solvable. The discrimination
  // is between the two failure codes, never a misclassification.
  LinearProgram bounded = unbounded;
  bounded.c = {1.0, 1.0};
  auto r4 = SolveLp(bounded);
  ASSERT_TRUE(r4.ok());
  EXPECT_NEAR(r4->objective, 0.0, 1e-9);

  // Negative upper bound: trivially infeasible, caught before phase 1.
  LinearProgram bad_box;
  bad_box.c = {1.0};
  bad_box.upper = {-0.5};
  auto r5 = SolveLp(bad_box);
  ASSERT_FALSE(r5.ok());
  EXPECT_EQ(r5.status().code(), StatusCode::kNoSolution);
}

TEST(LpEdgeTest, RandomDifferentialAgainstTableauOracle) {
  // Feasible-by-construction boxes (x = 0 satisfies every row) with all
  // variables bounded, so the optimum exists. The revised simplex and the
  // legacy tableau must agree on every objective.
  Rng rng(DeriveSeed(0x1bedull, 11));
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.UniformInt(4);   // 2..5 vars
    const std::size_t m = 1 + rng.UniformInt(3);   // 1..3 ub rows
    LinearProgram lp;
    lp.c.resize(n);
    lp.upper.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      lp.c[j] = rng.Uniform(-2.0, 2.0);
      lp.upper[j] = rng.Uniform(0.5, 3.0);
    }
    lp.a_ub = Matrix(m, n, 0.0);
    lp.b_ub.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        lp.a_ub(i, j) = rng.Uniform(-1.0, 1.0);
      }
      lp.b_ub[i] = rng.Uniform(0.1, 2.0);  // x = 0 stays feasible
    }
    // Occasionally pin one variable with an equality that x=0 satisfies.
    if (trial % 4 == 0) {
      lp.a_eq = Matrix(1, n, 0.0);
      lp.a_eq(0, 0) = 1.0;
      lp.a_eq(0, n - 1) = -1.0;
      lp.b_eq = {0.0};
    }

    auto revised = SolveLp(lp);
    auto tableau = SolveLpTableau(lp);
    ASSERT_TRUE(revised.ok()) << "trial " << trial << ": "
                              << revised.status().ToString();
    ASSERT_TRUE(tableau.ok()) << "trial " << trial << ": "
                              << tableau.status().ToString();
    EXPECT_NEAR(revised->objective, tableau->objective, 1e-6)
        << "trial " << trial;
    // The revised solution must itself be feasible.
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(revised->x[j], -1e-9);
      EXPECT_LE(revised->x[j], lp.upper[j] + 1e-9);
    }
    for (std::size_t i = 0; i < m; ++i) {
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) lhs += lp.a_ub(i, j) * revised->x[j];
      EXPECT_LE(lhs, lp.b_ub[i] + 1e-7);
    }
  }
}

TEST(LpEdgeTest, MixedInfiniteUppersStillWork) {
  LinearProgram lp;
  lp.c = {-1.0, -1.0};
  lp.upper = {kInf, 0.5};
  lp.a_ub = Matrix(1, 2, 0.0);
  lp.a_ub(0, 0) = 1.0;
  lp.a_ub(0, 1) = 1.0;
  lp.b_ub = {2.0};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, -2.0, 1e-9);
  EXPECT_NEAR(sol->x[0] + sol->x[1], 2.0, 1e-9);
}

}  // namespace
}  // namespace fairbench
