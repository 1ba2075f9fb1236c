#ifndef FAIRBENCH_OPTIM_SIMPLEX_LP_H_
#define FAIRBENCH_OPTIM_SIMPLEX_LP_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace fairbench {

/// A dense linear program:
///   minimize    c^T x
///   subject to  a_ub x <= b_ub
///               a_eq x  = b_eq
///               0 <= x_j <= upper[j]   (upper[j] may be +inf)
///
/// FairBench uses this for HARDT's equalized-odds program (4 variables) and
/// for small fractional-repair subproblems. The solver is a
/// bounded-variable revised simplex with an explicit, persistable basis so
/// repeated structurally-identical solves (CV folds, stability replicates)
/// can warm-start past phase 1 (optim/revised_simplex.cc).
struct LinearProgram {
  Vector c;
  Matrix a_ub;   ///< May be empty (0 rows).
  Vector b_ub;
  Matrix a_eq;   ///< May be empty (0 rows).
  Vector b_eq;
  Vector upper;  ///< Per-variable upper bounds; empty means all +inf.
};

/// Primal solution of a linear program.
struct LpSolution {
  Vector x;
  double objective = 0.0;
};

/// Nonbasic/basic status of one standard-form column in a simplex basis.
enum class LpVarStatus : std::uint8_t {
  kAtLower = 0,
  kAtUpper = 1,
  kBasic = 2,
};

/// A persistable simplex basis: one status per standard-form column
/// (`n` structural variables, then one slack per a_ub row, then one fixed
/// slack per a_eq row — in that order). SolveLp(lp, &basis) reads it as a
/// warm start and overwrites it with the optimal basis on success.
///
/// A warm start is only attempted when `valid` is set AND the shape
/// fingerprint (n, m_ub, m_eq) matches the program AND the implied basis
/// matrix is nonsingular and primal-feasible; otherwise the solve silently
/// falls back to a cold phase-1 start (the basis is still overwritten on
/// success). Callers therefore never need to invalidate explicitly on
/// numeric changes — only shape changes make a basis stale, and those are
/// fingerprint-checked.
struct LpBasis {
  std::vector<LpVarStatus> status;
  std::size_t n = 0;
  std::size_t m_ub = 0;
  std::size_t m_eq = 0;
  bool valid = false;
};

/// Small thread-safe holder for sharing one LpBasis across CV folds or
/// stability replicates (e.g. hardt.cc solves under exec::ParallelFor).
/// Load/Store copy under a mutex; the cache never blocks correctness —
/// a stale or mismatched basis just degrades to a cold solve.
class LpBasisCache {
 public:
  /// Copies the cached basis into *out. Returns false (and leaves *out
  /// untouched) when nothing has been stored yet.
  bool Load(LpBasis* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!basis_.valid) return false;
    *out = basis_;
    return true;
  }

  /// Stores a basis (typically the optimal basis of the latest solve).
  void Store(const LpBasis& basis) {
    std::lock_guard<std::mutex> lock(mu_);
    basis_ = basis;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    basis_ = LpBasis{};
  }

 private:
  mutable std::mutex mu_;
  LpBasis basis_;
};

/// Per-solve counters surfaced through the obs `optim.lp.*` metrics.
struct LpSolveStats {
  bool warm_start_attempted = false;
  bool warm_start_hit = false;  ///< Warm basis accepted (factorized+feasible).
  bool phase1_skipped = false;
  int phase1_iterations = 0;
  int phase2_iterations = 0;
  int refactorizations = 0;
};

/// Solves the LP with the bounded-variable revised simplex. Returns:
///  - NoSolution when infeasible,
///  - NoConvergence when unbounded or cycling beyond the iteration cap,
///  - InvalidArgument on shape mismatches.
Result<LpSolution> SolveLp(const LinearProgram& lp);

/// Warm-startable variant: when `basis` holds a valid basis for an LP of
/// the same shape, phase 1 is skipped and the solve resumes from that
/// basis; on success the optimal basis is written back for the next call.
/// `basis` may be null (plain cold solve). The returned solution is a pure
/// function of the *final* basis — warm and cold solves that end in the
/// same basis produce bit-identical x — which is what keeps golden tables
/// stable regardless of caching (DESIGN.md §14).
Result<LpSolution> SolveLp(const LinearProgram& lp, LpBasis* basis,
                           LpSolveStats* stats = nullptr);

}  // namespace fairbench

#endif  // FAIRBENCH_OPTIM_SIMPLEX_LP_H_
