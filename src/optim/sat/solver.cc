#include "optim/sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace fairbench::sat {
namespace {

// i-th term of the Luby restart sequence 1,1,2,1,1,2,4,1,... scaled by y.
double Luby(double y, int i) {
  int size = 1;
  int seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return std::pow(y, seq);
}

}  // namespace

Solver::Solver(SolverOptions options)
    : options_(options),
      branch_rng_(DeriveSeed(options.seed, 0)),
      phase_rng_(DeriveSeed(options.seed, 1)) {}

Var Solver::NewVar() {
  Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  saved_phase_.push_back(false);  // branch negative first: good for MaxSAT
                                  // blocking variables, harmless elsewhere.
  activity_.push_back(0.0);
  reason_.push_back(kCRefUndef);
  level_.push_back(0);
  seen_.push_back(0);
  heap_index_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  InsertVarOrder(v);
  return v;
}

bool Solver::Locked(CRef cr) const {
  const Clause& c = clauses_[static_cast<std::size_t>(cr)];
  if (c.lits.empty()) return false;
  Lit first = c.lits[0];
  return Value(first) == LBool::kTrue &&
         reason_[static_cast<std::size_t>(VarOf(first))] == cr;
}

Solver::CRef Solver::AllocClause(std::vector<Lit> lits, bool learnt) {
  CRef cr = static_cast<CRef>(clauses_.size());
  Clause c;
  c.lits = std::move(lits);
  c.learnt = learnt;
  clauses_.push_back(std::move(c));
  return cr;
}

void Solver::AttachClause(CRef cr) {
  const Clause& c = clauses_[static_cast<std::size_t>(cr)];
  assert(c.lits.size() >= 2);
  watches_[static_cast<std::size_t>(LitIndex(~c.lits[0]))].push_back(
      Watcher{cr, c.lits[1]});
  watches_[static_cast<std::size_t>(LitIndex(~c.lits[1]))].push_back(
      Watcher{cr, c.lits[0]});
}

void Solver::DetachClause(CRef cr) {
  const Clause& c = clauses_[static_cast<std::size_t>(cr)];
  for (int k = 0; k < 2; ++k) {
    auto& ws = watches_[static_cast<std::size_t>(LitIndex(~c.lits[static_cast<std::size_t>(k)]))];
    for (size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == cr) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::RemoveClause(CRef cr) {
  DetachClause(cr);
  clauses_[static_cast<std::size_t>(cr)].deleted = true;
  clauses_[static_cast<std::size_t>(cr)].lits.clear();
  clauses_[static_cast<std::size_t>(cr)].lits.shrink_to_fit();
  ++stats_.removed_clauses;
}

bool Solver::AddClause(std::vector<Lit> lits) {
  assert(DecisionLevel() == 0);
  if (!ok_) return false;

  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  out.reserve(lits.size());
  Lit prev = kLitUndef;
  for (Lit p : lits) {
    assert(VarOf(p) >= 0 && VarOf(p) < NumVars());
    if (Value(p) == LBool::kTrue || p == ~prev) return true;  // satisfied/taut
    if (Value(p) != LBool::kFalse && p != prev) {
      out.push_back(p);
      prev = p;
    }
  }

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    UncheckedEnqueue(out[0], kCRefUndef);
    ok_ = (Propagate() == kCRefUndef);
    return ok_;
  }
  CRef cr = AllocClause(std::move(out), /*learnt=*/false);
  problem_refs_.push_back(cr);
  AttachClause(cr);
  return true;
}

void Solver::UncheckedEnqueue(Lit p, CRef from) {
  std::size_t v = static_cast<std::size_t>(VarOf(p));
  assert(assigns_[v] == LBool::kUndef);
  assigns_[v] = BoolToLBool(!Sign(p));
  reason_[v] = from;
  level_[v] = DecisionLevel();
  trail_.push_back(p);
}

Solver::CRef Solver::Propagate() {
  CRef confl = kCRefUndef;
  while (qhead_ < static_cast<int>(trail_.size())) {
    Lit p = trail_[static_cast<std::size_t>(qhead_++)];
    ++stats_.propagations;
    auto& ws = watches_[static_cast<std::size_t>(LitIndex(p))];
    size_t i = 0;
    size_t j = 0;
    while (i < ws.size()) {
      Watcher w = ws[i];
      if (Value(w.blocker) == LBool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = clauses_[static_cast<std::size_t>(w.cref)];
      // Make sure the false literal is c.lits[1].
      Lit false_lit = ~p;
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      assert(c.lits[1] == false_lit);
      ++i;

      Lit first = c.lits[0];
      if (first != w.blocker && Value(first) == LBool::kTrue) {
        ws[j++] = Watcher{w.cref, first};
        continue;
      }

      // Look for a new literal to watch.
      bool found = false;
      for (size_t k = 2; k < c.lits.size(); ++k) {
        if (Value(c.lits[k]) != LBool::kFalse) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[static_cast<std::size_t>(LitIndex(~c.lits[1]))].push_back(
              Watcher{w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;

      // Clause is unit or conflicting.
      ws[j++] = Watcher{w.cref, first};
      if (Value(first) == LBool::kFalse) {
        confl = w.cref;
        qhead_ = static_cast<int>(trail_.size());
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        UncheckedEnqueue(first, w.cref);
      }
    }
    ws.resize(j);
    if (confl != kCRefUndef) break;
  }
  return confl;
}

void Solver::CancelUntil(int target_level) {
  if (DecisionLevel() <= target_level) return;
  int lim = trail_lim_[static_cast<std::size_t>(target_level)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= lim; --i) {
    std::size_t v = static_cast<std::size_t>(VarOf(trail_[static_cast<std::size_t>(i)]));
    saved_phase_[v] = (assigns_[v] == LBool::kTrue);
    assigns_[v] = LBool::kUndef;
    reason_[v] = kCRefUndef;
    if (!InHeap(static_cast<Var>(v))) InsertVarOrder(static_cast<Var>(v));
  }
  trail_.resize(static_cast<std::size_t>(lim));
  trail_lim_.resize(static_cast<std::size_t>(target_level));
  qhead_ = lim;
}

// One-step self-subsumption: p is redundant in the learnt clause if every
// other literal of its reason clause is already marked seen at a nonzero
// level (or fixed at level 0).
bool Solver::LitRedundant(Lit p) const {
  CRef r = reason_[static_cast<std::size_t>(VarOf(p))];
  if (r == kCRefUndef) return false;
  const Clause& c = clauses_[static_cast<std::size_t>(r)];
  for (size_t k = 0; k < c.lits.size(); ++k) {
    Lit q = c.lits[k];
    if (VarOf(q) == VarOf(p)) continue;
    std::size_t v = static_cast<std::size_t>(VarOf(q));
    if (!seen_[v] && level_[v] > 0) return false;
  }
  return true;
}

void Solver::Analyze(CRef confl, std::vector<Lit>* out_learnt, int* out_btlevel,
                     int* out_lbd) {
  out_learnt->clear();
  out_learnt->push_back(kLitUndef);  // placeholder for the asserting literal

  int path_count = 0;
  Lit p = kLitUndef;
  int index = static_cast<int>(trail_.size()) - 1;

  do {
    assert(confl != kCRefUndef);
    Clause& c = clauses_[static_cast<std::size_t>(confl)];
    if (c.learnt) ClaBumpActivity(c);
    for (size_t k = (p == kLitUndef) ? 0 : 1; k < c.lits.size(); ++k) {
      Lit q = c.lits[k];
      std::size_t v = static_cast<std::size_t>(VarOf(q));
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      VarBumpActivity(static_cast<Var>(v));
      if (level_[v] >= DecisionLevel()) {
        ++path_count;
      } else {
        out_learnt->push_back(q);
      }
    }
    // Pick the next marked literal off the trail.
    while (!seen_[static_cast<std::size_t>(VarOf(trail_[static_cast<std::size_t>(index)]))]) {
      --index;
    }
    p = trail_[static_cast<std::size_t>(index--)];
    confl = reason_[static_cast<std::size_t>(VarOf(p))];
    seen_[static_cast<std::size_t>(VarOf(p))] = 0;
    --path_count;
  } while (path_count > 0);
  (*out_learnt)[0] = ~p;

  // Conflict-clause minimization (one-step self-subsumption).
  analyze_clear_.assign(out_learnt->begin(), out_learnt->end());
  for (Lit q : *out_learnt) seen_[static_cast<std::size_t>(VarOf(q))] = 1;
  size_t j = 1;
  for (size_t i = 1; i < out_learnt->size(); ++i) {
    Lit q = (*out_learnt)[i];
    if (!LitRedundant(q)) (*out_learnt)[j++] = q;
  }
  out_learnt->resize(j);
  stats_.learned_literals += static_cast<int64_t>(out_learnt->size());

  // Backtrack level: highest level among the non-asserting literals.
  if (out_learnt->size() == 1) {
    *out_btlevel = 0;
  } else {
    size_t max_i = 1;
    for (size_t i = 2; i < out_learnt->size(); ++i) {
      if (level_[static_cast<std::size_t>(VarOf((*out_learnt)[i]))] >
          level_[static_cast<std::size_t>(VarOf((*out_learnt)[max_i]))]) {
        max_i = i;
      }
    }
    std::swap((*out_learnt)[1], (*out_learnt)[max_i]);
    *out_btlevel = level_[static_cast<std::size_t>(VarOf((*out_learnt)[1]))];
  }

  // Literal block distance: number of distinct decision levels.
  lbd_levels_.clear();
  for (Lit q : *out_learnt) {
    int lv = level_[static_cast<std::size_t>(VarOf(q))];
    if (std::find(lbd_levels_.begin(), lbd_levels_.end(), lv) ==
        lbd_levels_.end()) {
      lbd_levels_.push_back(lv);
    }
  }
  *out_lbd = static_cast<int>(lbd_levels_.size());

  for (Lit q : analyze_clear_) seen_[static_cast<std::size_t>(VarOf(q))] = 0;
}

// Specialized analysis for a conflicting assumption: computes the subset of
// assumptions sufficient for unsatisfiability, reported as the assumption
// literals themselves.
void Solver::AnalyzeFinal(Lit p) {
  conflict_core_.clear();
  conflict_core_.push_back(~p);
  if (DecisionLevel() == 0) return;

  seen_[static_cast<std::size_t>(VarOf(p))] = 1;
  for (int i = static_cast<int>(trail_.size()) - 1;
       i >= trail_lim_[0]; --i) {
    Lit q = trail_[static_cast<std::size_t>(i)];
    std::size_t v = static_cast<std::size_t>(VarOf(q));
    if (!seen_[v]) continue;
    if (reason_[v] == kCRefUndef) {
      assert(level_[v] > 0);
      conflict_core_.push_back(q);  // a decision here is an assumption
    } else {
      const Clause& c = clauses_[static_cast<std::size_t>(reason_[v])];
      for (size_t k = 1; k < c.lits.size(); ++k) {
        size_t u = static_cast<std::size_t>(VarOf(c.lits[k]));
        if (level_[u] > 0) seen_[u] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[static_cast<std::size_t>(VarOf(p))] = 0;
}

bool Solver::HeapLess(Var u, Var v) const {
  double au = activity_[static_cast<std::size_t>(u)];
  double av = activity_[static_cast<std::size_t>(v)];
  if (au != av) return au > av;  // max-heap on activity
  return u < v;                  // deterministic tie-break
}

void Solver::HeapPercolateUp(int i) {
  Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    int parent = (i - 1) >> 1;
    if (!HeapLess(v, heap_[static_cast<std::size_t>(parent)])) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heap_index_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_index_[static_cast<std::size_t>(v)] = i;
}

void Solver::HeapPercolateDown(int i) {
  Var v = heap_[static_cast<std::size_t>(i)];
  int n = static_cast<int>(heap_.size());
  while (2 * i + 1 < n) {
    int child = 2 * i + 1;
    if (child + 1 < n && HeapLess(heap_[static_cast<std::size_t>(child + 1)],
                                  heap_[static_cast<std::size_t>(child)])) {
      ++child;
    }
    if (!HeapLess(heap_[static_cast<std::size_t>(child)], v)) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heap_index_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_index_[static_cast<std::size_t>(v)] = i;
}

void Solver::InsertVarOrder(Var v) {
  if (InHeap(v)) return;
  heap_.push_back(v);
  HeapPercolateUp(static_cast<int>(heap_.size()) - 1);
}

Var Solver::HeapPop() {
  Var top = heap_[0];
  heap_index_[static_cast<std::size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[static_cast<std::size_t>(heap_[0])] = 0;
    HeapPercolateDown(0);
  }
  return top;
}

void Solver::VarBumpActivity(Var v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    // Rescaling preserves the heap order; no rebuild needed.
  }
  if (InHeap(v)) HeapPercolateUp(heap_index_[static_cast<std::size_t>(v)]);
}

void Solver::VarDecayActivity() { var_inc_ /= options_.var_decay; }

void Solver::ClaBumpActivity(Clause& c) {
  c.activity += cla_inc_;
  if (c.activity > 1e20) {
    for (CRef cr : learnt_refs_) {
      clauses_[static_cast<std::size_t>(cr)].activity *= 1e-20;
    }
    cla_inc_ *= 1e-20;
  }
}

void Solver::ClaDecayActivity() { cla_inc_ /= options_.clause_decay; }

Lit Solver::PickBranchLit() {
  Var next = kVarUndef;

  // Occasional random decision for diversification.
  if (options_.random_var_freq > 0.0 && !heap_.empty() &&
      branch_rng_.Bernoulli(options_.random_var_freq)) {
    Var cand = heap_[static_cast<std::size_t>(
        branch_rng_.UniformInt(static_cast<uint64_t>(heap_.size())))];
    if (Value(cand) == LBool::kUndef) next = cand;
  }

  while (next == kVarUndef || Value(next) != LBool::kUndef) {
    if (heap_.empty()) return kLitUndef;
    next = HeapPop();
    if (Value(next) != LBool::kUndef) next = kVarUndef;
  }

  bool phase = saved_phase_[static_cast<std::size_t>(next)];
  if (options_.random_phase_freq > 0.0 &&
      phase_rng_.Bernoulli(options_.random_phase_freq)) {
    phase = !phase;
  }
  return MakeLit(next, /*negated=*/!phase);
}

void Solver::ReduceDB() {
  ++stats_.db_reductions;

  // Candidates: learnt, not glue (lbd > 2), longer than binary, not the
  // reason of a current assignment. Sort best-first by (lbd, activity) and
  // drop the worst half. Deterministic: final tie-break on the arena ref.
  std::vector<CRef> cand;
  cand.reserve(learnt_refs_.size());
  for (CRef cr : learnt_refs_) {
    const Clause& c = clauses_[static_cast<std::size_t>(cr)];
    if (c.deleted || c.lbd <= 2 || c.lits.size() <= 2 || Locked(cr)) continue;
    cand.push_back(cr);
  }
  std::sort(cand.begin(), cand.end(), [this](CRef a, CRef b) {
    const Clause& ca = clauses_[static_cast<std::size_t>(a)];
    const Clause& cb = clauses_[static_cast<std::size_t>(b)];
    if (ca.lbd != cb.lbd) return ca.lbd < cb.lbd;
    if (ca.activity != cb.activity) return ca.activity > cb.activity;
    return a < b;
  });
  for (size_t i = cand.size() / 2; i < cand.size(); ++i) {
    RemoveClause(cand[i]);
  }

  learnt_refs_.erase(
      std::remove_if(learnt_refs_.begin(), learnt_refs_.end(),
                     [this](CRef cr) {
                       return clauses_[static_cast<std::size_t>(cr)].deleted;
                     }),
      learnt_refs_.end());
  max_learnts_ *= 1.3;
}

Solver::SearchResult Solver::Search(int64_t conflict_cap,
                                    int64_t conflict_budget) {
  int64_t conflicts_here = 0;
  std::vector<Lit> learnt;

  for (;;) {
    // Checked before every propagation, so a call never spends more than
    // its budget: each pass adds at most one conflict.
    if (conflict_budget >= 0 && stats_.conflicts >= conflict_budget) {
      CancelUntil(0);
      return SearchResult::kBudget;
    }
    CRef confl = Propagate();
    if (confl != kCRefUndef) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (DecisionLevel() == 0) {
        // Conflict below every assumption: hard clauses are unsatisfiable.
        ok_ = false;
        conflict_core_.clear();
        return SearchResult::kUnsat;
      }

      int backtrack_level = 0;
      int lbd = 0;
      Analyze(confl, &learnt, &backtrack_level, &lbd);
      CancelUntil(backtrack_level);
      if (learnt.size() == 1) {
        UncheckedEnqueue(learnt[0], kCRefUndef);
      } else {
        CRef cr = AllocClause(learnt, /*learnt=*/true);
        clauses_[static_cast<std::size_t>(cr)].lbd = lbd;
        learnt_refs_.push_back(cr);
        AttachClause(cr);
        ClaBumpActivity(clauses_[static_cast<std::size_t>(cr)]);
        ++stats_.learned_clauses;
        UncheckedEnqueue(learnt[0], cr);
      }
      VarDecayActivity();
      ClaDecayActivity();
    } else {
      if (conflicts_here >= conflict_cap) {
        ++stats_.restarts;
        CancelUntil(0);
        return SearchResult::kRestart;
      }
      if (static_cast<double>(learnt_refs_.size()) >=
          max_learnts_ + static_cast<double>(trail_.size())) {
        ReduceDB();
      }

      Lit next = kLitUndef;
      while (DecisionLevel() < static_cast<int>(assumptions_.size())) {
        Lit p = assumptions_[static_cast<std::size_t>(DecisionLevel())];
        if (Value(p) == LBool::kTrue) {
          NewDecisionLevel();  // dummy level keeps indices aligned
        } else if (Value(p) == LBool::kFalse) {
          AnalyzeFinal(~p);
          return SearchResult::kUnsat;
        } else {
          next = p;
          break;
        }
      }

      if (next == kLitUndef) {
        next = PickBranchLit();
        if (next == kLitUndef) return SearchResult::kSat;  // model found
        ++stats_.decisions;
      }
      NewDecisionLevel();
      UncheckedEnqueue(next, kCRefUndef);
    }
  }
}

Solver::Outcome Solver::Solve(const std::vector<Lit>& assumptions,
                              int64_t max_conflicts) {
  model_.clear();
  conflict_core_.clear();
  if (!ok_) return Outcome::kUnsat;
  assumptions_ = assumptions;

  const int64_t budget =
      max_conflicts < 0 ? -1 : stats_.conflicts + max_conflicts;
  if (max_learnts_ <= 0.0) {
    max_learnts_ =
        std::max(100.0, 0.4 * static_cast<double>(problem_refs_.size()));
  }

  Outcome outcome = Outcome::kUnknown;
  for (int curr_restarts = 0;; ++curr_restarts) {
    int64_t cap = static_cast<int64_t>(
        Luby(2.0, curr_restarts) * static_cast<double>(options_.restart_first));
    SearchResult r = Search(cap, budget);
    if (r == SearchResult::kSat) {
      model_ = assigns_;
      outcome = Outcome::kSat;
      break;
    }
    if (r == SearchResult::kUnsat) {
      outcome = Outcome::kUnsat;
      break;
    }
    if (r == SearchResult::kBudget) {
      outcome = Outcome::kUnknown;
      break;
    }
    // kRestart: continue with the next Luby cap.
  }

  CancelUntil(0);
  assumptions_.clear();
  return outcome;
}

}  // namespace fairbench::sat
