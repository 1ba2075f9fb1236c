#ifndef FAIRBENCH_TESTS_OPTIM_LP_TABLEAU_ORACLE_H_
#define FAIRBENCH_TESTS_OPTIM_LP_TABLEAU_ORACLE_H_

// Dense two-phase tableau simplex: an independent LP solver that
// lp_edge_test compares SolveLp (the revised simplex) against.

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "optim/simplex_lp.h"

namespace fairbench {
namespace lp_tableau_internal {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Standard-form tableau simplex:
///   min c^T x  s.t.  A x = b, x >= 0, b >= 0,
/// starting from the given basic feasible solution `basis` (column indices
/// of the identity part). Runs Dantzig pricing with a Bland fallback after
/// `bland_after` iterations to guarantee termination.
struct Tableau {
  Matrix a;          // m x n
  Vector b;          // m
  Vector c;          // n
  std::vector<int> basis;  // m entries

  // Pivots until optimal. Returns false if unbounded.
  bool Solve(int max_iters = 20000) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    // Reduced costs maintained implicitly: compute z_j - c_j each pass
    // using the basis inverse baked into the tableau (we keep the tableau
    // fully reduced, so reduced costs are just c adjusted by pivots).
    // Here `c` is mutated into reduced-cost form as we pivot.
    int iter = 0;
    const int bland_after = max_iters / 2;
    while (iter++ < max_iters) {
      // Entering variable: most negative reduced cost (Dantzig), or the
      // lowest-index negative one (Bland) once we suspect cycling.
      int enter = -1;
      if (iter < bland_after) {
        double best = -kEps;
        for (std::size_t j = 0; j < n; ++j) {
          if (c[j] < best) {
            best = c[j];
            enter = static_cast<int>(j);
          }
        }
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          if (c[j] < -kEps) {
            enter = static_cast<int>(j);
            break;
          }
        }
      }
      if (enter < 0) return true;  // Optimal.

      // Ratio test.
      int leave = -1;
      double best_ratio = kInf;
      for (std::size_t i = 0; i < m; ++i) {
        const double aij = a(i, static_cast<std::size_t>(enter));
        if (aij > kEps) {
          const double ratio = b[i] / aij;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && leave >= 0 &&
               basis[i] < basis[static_cast<std::size_t>(leave)])) {
            best_ratio = ratio;
            leave = static_cast<int>(i);
          }
        }
      }
      if (leave < 0) return false;  // Unbounded.
      Pivot(static_cast<std::size_t>(leave), static_cast<std::size_t>(enter));
    }
    return true;  // Iteration cap: return current (feasible) point.
  }

  void Pivot(std::size_t row, std::size_t col) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    const double pivot = a(row, col);
    for (std::size_t j = 0; j < n; ++j) a(row, j) /= pivot;
    b[row] /= pivot;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == row) continue;
      const double f = a(i, col);
      if (std::fabs(f) < kEps) continue;
      for (std::size_t j = 0; j < n; ++j) a(i, j) -= f * a(row, j);
      b[i] -= f * b[row];
    }
    const double cf = c[col];
    if (std::fabs(cf) > 0.0) {
      for (std::size_t j = 0; j < n; ++j) c[j] -= cf * a(row, j);
      objective_shift += cf * b[row];
    }
    basis[row] = static_cast<int>(col);
  }

  double objective_shift = 0.0;
};

}  // namespace lp_tableau_internal

/// Solves `lp` with the tableau, expanding finite upper bounds to rows.
/// Same status contract as SolveLp.
inline Result<LpSolution> SolveLpTableau(const LinearProgram& lp) {
  const std::size_t n = lp.c.size();
  const std::size_t m_ub = lp.a_ub.rows();
  const std::size_t m_eq = lp.a_eq.rows();
  if ((m_ub > 0 && lp.a_ub.cols() != n) || lp.b_ub.size() != m_ub ||
      (m_eq > 0 && lp.a_eq.cols() != n) || lp.b_eq.size() != m_eq ||
      (!lp.upper.empty() && lp.upper.size() != n)) {
    return Status::InvalidArgument("SolveLp: shape mismatch");
  }

  // Count finite upper bounds; each becomes a row x_j + s = u_j.
  std::vector<std::size_t> bounded;
  if (!lp.upper.empty()) {
    for (std::size_t j = 0; j < n; ++j) {
      if (std::isfinite(lp.upper[j])) bounded.push_back(j);
    }
  }

  const std::size_t m = m_ub + m_eq + bounded.size();
  // Columns: n structural + m_ub slack + bounded slack + m artificial.
  const std::size_t n_slack = m_ub + bounded.size();
  const std::size_t n_total = n + n_slack + m;

  using lp_tableau_internal::kEps;
  lp_tableau_internal::Tableau t;
  t.a = Matrix(m, n_total, 0.0);
  t.b = Vector(m, 0.0);
  t.c = Vector(n_total, 0.0);
  t.basis.assign(m, 0);

  std::size_t row = 0;
  std::size_t slack = n;
  // a_ub rows.
  for (std::size_t i = 0; i < m_ub; ++i, ++row) {
    for (std::size_t j = 0; j < n; ++j) t.a(row, j) = lp.a_ub(i, j);
    t.a(row, slack++) = 1.0;
    t.b[row] = lp.b_ub[i];
  }
  // a_eq rows.
  for (std::size_t i = 0; i < m_eq; ++i, ++row) {
    for (std::size_t j = 0; j < n; ++j) t.a(row, j) = lp.a_eq(i, j);
    t.b[row] = lp.b_eq[i];
  }
  // Upper-bound rows.
  for (std::size_t k = 0; k < bounded.size(); ++k, ++row) {
    t.a(row, bounded[k]) = 1.0;
    t.a(row, slack++) = 1.0;
    t.b[row] = lp.upper[bounded[k]];
  }
  // Normalize to b >= 0.
  for (std::size_t i = 0; i < m; ++i) {
    if (t.b[i] < 0.0) {
      for (std::size_t j = 0; j < n + n_slack; ++j) t.a(i, j) = -t.a(i, j);
      t.b[i] = -t.b[i];
    }
  }
  // Artificial columns, initial basis.
  for (std::size_t i = 0; i < m; ++i) {
    t.a(i, n + n_slack + i) = 1.0;
    t.basis[i] = static_cast<int>(n + n_slack + i);
  }

  // Phase 1: minimize sum of artificials.
  for (std::size_t i = 0; i < m; ++i) t.c[n + n_slack + i] = 1.0;
  // Reduce costs w.r.t. the artificial basis.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n_total; ++j) t.c[j] -= t.a(i, j);
    t.objective_shift += t.b[i];
  }
  if (!t.Solve()) {
    return Status::NoConvergence("SolveLp: phase-1 unbounded (internal)");
  }
  // Phase-1 objective = total value of artificial variables still basic;
  // the LP is feasible iff it is ~0.
  double phase1 = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (static_cast<std::size_t>(t.basis[i]) >= n + n_slack) phase1 += t.b[i];
  }
  if (phase1 > 1e-6) {
    return Status::NoSolution("SolveLp: infeasible");
  }
  // Drive any artificials out of the basis if possible.
  for (std::size_t i = 0; i < m; ++i) {
    if (static_cast<std::size_t>(t.basis[i]) >= n + n_slack) {
      for (std::size_t j = 0; j < n + n_slack; ++j) {
        if (std::fabs(t.a(i, j)) > kEps) {
          t.Pivot(i, j);
          break;
        }
      }
    }
  }

  // Phase 2: restore the true costs, reduced w.r.t. the current basis.
  t.c.assign(n_total, 0.0);
  for (std::size_t j = 0; j < n; ++j) t.c[j] = lp.c[j];
  // Forbid artificials from re-entering.
  for (std::size_t j = n + n_slack; j < n_total; ++j) t.c[j] = 1e30;
  t.objective_shift = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t bj = static_cast<std::size_t>(t.basis[i]);
    const double cb = t.c[bj];
    if (cb != 0.0) {
      for (std::size_t j = 0; j < n_total; ++j) t.c[j] -= cb * t.a(i, j);
      t.objective_shift += cb * t.b[i];
    }
  }
  if (!t.Solve()) {
    return Status::NoConvergence("SolveLp: unbounded objective");
  }

  LpSolution sol;
  sol.x.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t bj = static_cast<std::size_t>(t.basis[i]);
    if (bj < n) sol.x[bj] = t.b[i];
  }
  sol.objective = Dot(lp.c, sol.x);
  return sol;
}

}  // namespace fairbench

#endif  // FAIRBENCH_TESTS_OPTIM_LP_TABLEAU_ORACLE_H_
