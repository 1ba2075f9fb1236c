#ifndef FAIRBENCH_OPTIM_SAT_SOLVER_H_
#define FAIRBENCH_OPTIM_SAT_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "optim/sat/sat_types.h"

namespace fairbench::sat {

/// Tuning knobs for the CDCL engine. Defaults follow MiniSat 2.2 except
/// where noted; every stochastic choice flows through seeds derived with
/// DeriveSeed so runs are reproducible from `seed` alone.
struct SolverOptions {
  uint64_t seed = 0xfa17b3ac4ull;
  /// Conflicts before the first Luby restart; later restarts scale by the
  /// Luby sequence times this base.
  int restart_first = 100;
  double var_decay = 0.95;
  double clause_decay = 0.999;
  /// Fraction of branching decisions that pick a random unassigned
  /// variable instead of the VSIDS maximum (diversification).
  double random_var_freq = 0.02;
  /// Fraction of decisions whose saved phase is flipped at random.
  double random_phase_freq = 0.005;
};

/// Counters for the obs `optim.sat.*` metrics and for tests; cumulative
/// over the lifetime of the solver.
struct SolveStats {
  int64_t conflicts = 0;
  int64_t propagations = 0;
  int64_t decisions = 0;
  int64_t restarts = 0;
  int64_t learned_clauses = 0;
  int64_t learned_literals = 0;
  int64_t db_reductions = 0;
  int64_t removed_clauses = 0;
};

/// Conflict-driven clause-learning SAT solver (MiniSat lineage):
/// two-watched-literal propagation with blocker literals, first-UIP
/// learning with recursive-free self-subsumption minimization, LBD-scored
/// learnt-clause DB reduction, VSIDS branching over an indexed max-heap,
/// phase saving, and Luby restarts.
///
/// The solver is incremental: clauses may be added between Solve() calls,
/// and Solve(assumptions) solves under a conjunction of assumption
/// literals, returning a subset of them as an unsatisfiable core via
/// FailedAssumptions() when the answer is kUnsat. This is the substrate
/// the WPM1 MaxSAT driver in optim/maxsat.cc builds on.
///
/// Not thread-safe; use one Solver per thread (see DESIGN.md §14).
class Solver {
 public:
  enum class Outcome { kSat, kUnsat, kUnknown };

  explicit Solver(SolverOptions options = {});

  /// Adds a fresh variable and returns its index.
  Var NewVar();
  int NumVars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause over existing variables. Returns false iff the clause
  /// set became trivially unsatisfiable at the root level (empty clause or
  /// contradictory units). Tautologies and satisfied-at-root clauses are
  /// silently dropped. Must be called between Solve() calls, never during.
  bool AddClause(std::vector<Lit> lits);

  /// Solves the current clause set under the given assumptions, spending
  /// at most `max_conflicts` conflicts (< 0 means unlimited). kUnknown
  /// means that budget was exhausted; the solver remains usable and learnt
  /// clauses are kept.
  Outcome Solve(const std::vector<Lit>& assumptions = {},
                int64_t max_conflicts = -1);

  /// After kSat: the value of `v` in the model.
  LBool ModelValue(Var v) const { return model_[static_cast<std::size_t>(v)]; }

  /// After kUnsat under assumptions: a subset of the assumption literals
  /// whose conjunction is already unsatisfiable (an unsat core). Empty when
  /// the clause set is unsatisfiable independent of any assumption.
  const std::vector<Lit>& FailedAssumptions() const { return conflict_core_; }

  /// False once the clause set is proven unsatisfiable at the root.
  bool Okay() const { return ok_; }

  const SolveStats& stats() const { return stats_; }

 private:
  using CRef = int;
  static constexpr CRef kCRefUndef = -1;

  struct Clause {
    std::vector<Lit> lits;
    double activity = 0.0;
    int lbd = 0;
    bool learnt = false;
    bool deleted = false;
  };

  struct Watcher {
    CRef cref = kCRefUndef;
    Lit blocker = kLitUndef;
  };

  enum class SearchResult { kSat, kUnsat, kRestart, kBudget };

  LBool Value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  LBool Value(Lit p) const {
    LBool v = assigns_[static_cast<std::size_t>(VarOf(p))];
    if (v == LBool::kUndef) return v;
    return BoolToLBool((v == LBool::kTrue) != Sign(p));
  }
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  bool Locked(CRef cr) const;

  void AttachClause(CRef cr);
  void DetachClause(CRef cr);
  void RemoveClause(CRef cr);
  CRef AllocClause(std::vector<Lit> lits, bool learnt);

  void NewDecisionLevel() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
  void UncheckedEnqueue(Lit p, CRef from);
  CRef Propagate();
  void CancelUntil(int level);

  void Analyze(CRef confl, std::vector<Lit>* out_learnt, int* out_btlevel,
               int* out_lbd);
  bool LitRedundant(Lit p) const;
  void AnalyzeFinal(Lit p);

  Lit PickBranchLit();
  void InsertVarOrder(Var v);
  void VarBumpActivity(Var v);
  void VarDecayActivity();
  void ClaBumpActivity(Clause& c);
  void ClaDecayActivity();

  // Indexed binary max-heap over activity_ (ties broken toward the lower
  // variable index for determinism).
  bool HeapLess(Var u, Var v) const;
  void HeapPercolateUp(int i);
  void HeapPercolateDown(int i);
  bool InHeap(Var v) const { return heap_index_[static_cast<std::size_t>(v)] >= 0; }
  Var HeapPop();

  void ReduceDB();
  SearchResult Search(int64_t conflict_cap, int64_t conflict_budget);

  SolverOptions options_;
  SolveStats stats_;

  std::vector<Clause> clauses_;     // arena: problem + learnt clauses
  std::vector<CRef> problem_refs_;  // non-learnt clause refs
  std::vector<CRef> learnt_refs_;   // live learnt clause refs
  std::vector<std::vector<Watcher>> watches_;  // indexed by LitIndex

  std::vector<LBool> assigns_;
  std::vector<bool> saved_phase_;  // phase saving: last assigned value
  std::vector<double> activity_;
  std::vector<CRef> reason_;
  std::vector<int> level_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  int qhead_ = 0;

  std::vector<Var> heap_;
  std::vector<int> heap_index_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  double max_learnts_ = 0.0;

  bool ok_ = true;
  std::vector<Lit> assumptions_;
  std::vector<Lit> conflict_core_;
  std::vector<LBool> model_;

  Rng branch_rng_;
  Rng phase_rng_;

  // Analyze scratch (kept hot across conflicts).
  std::vector<char> seen_;
  std::vector<Lit> analyze_clear_;
  mutable std::vector<int> lbd_levels_;
};

}  // namespace fairbench::sat

#endif  // FAIRBENCH_OPTIM_SAT_SOLVER_H_
