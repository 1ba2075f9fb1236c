#ifndef FAIRBENCH_OPTIM_MAXSAT_H_
#define FAIRBENCH_OPTIM_MAXSAT_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace fairbench {

/// A literal: variable index with polarity. `negated == false` means the
/// literal is satisfied when the variable is true.
struct Literal {
  int var = 0;
  bool negated = false;
};

/// A weighted clause (disjunction of literals). `hard == true` clauses must
/// be satisfied; soft clauses contribute `weight` when satisfied.
struct Clause {
  std::vector<Literal> literals;
  double weight = 1.0;
  bool hard = false;
};

/// A weighted partial MaxSAT instance.
struct MaxSatInstance {
  int num_vars = 0;
  std::vector<Clause> clauses;
};

/// The CDCL core is seeded with DeriveSeed(MaxSatOptions::seed,
/// kMaxSatCdclStream).
inline constexpr uint64_t kMaxSatCdclStream = 0;

struct MaxSatOptions {
  uint64_t seed = 23;  ///< Base seed; the engine uses a DeriveSeed chain.
  /// CDCL conflict budget across the whole WPM1 search (every SAT call
  /// together). On exhaustion the solve returns the best model found so
  /// far with optimal == false. < 0 means unlimited.
  int64_t max_conflicts = 2000000;
};

/// Solution to a MaxSAT instance.
struct MaxSatSolution {
  /// num_vars entries. With no model (see hard_satisfied) all false and
  /// satisfied_weight 0.
  std::vector<bool> assignment;
  double satisfied_weight = 0.0;  ///< Total weight of satisfied soft clauses.
  /// All hard clauses satisfied. False when no model was found: the hard
  /// clauses are unsatisfiable, or the budget ran out before the first one.
  bool hard_satisfied = false;
  /// True when the CDCL engine finished its stratified search, proving the
  /// assignment optimal.
  bool optimal = false;
};

/// Solves weighted partial MaxSAT exactly: WPM1 (Fu–Malik with weight
/// stratification) over assumption literals on a conflict-driven SAT core,
/// which is what flattens the SALIMI-MaxSAT runtime curves the paper
/// attributes to its NP-hard minimal-repair step (Fig 11). The search is
/// anytime: if the conflict budget runs out, the best-weight model found
/// so far is returned with optimal == false.
Result<MaxSatSolution> SolveMaxSat(const MaxSatInstance& instance,
                                   const MaxSatOptions& options = {});

}  // namespace fairbench

#endif  // FAIRBENCH_OPTIM_MAXSAT_H_
