#include "optim/maxsat.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "optim/sat/solver.h"
#include "optim/solver_telemetry.h"

namespace fairbench {
namespace {

bool ClauseSatisfied(const Clause& clause, const std::vector<bool>& assign) {
  for (const Literal& lit : clause.literals) {
    const bool v = assign[static_cast<std::size_t>(lit.var)];
    if (v != lit.negated) return true;
  }
  return false;
}

/// Total weight of the soft clauses `assign` satisfies.
double SatisfiedWeight(const MaxSatInstance& instance,
                       const std::vector<bool>& assign) {
  double weight = 0.0;
  for (const Clause& c : instance.clauses) {
    if (!c.hard && ClauseSatisfied(c, assign)) weight += c.weight;
  }
  return weight;
}

struct CdclOutcome {
  bool have_model = false;  ///< At least a hard-feasible model was found.
  bool proven = false;      ///< The model is a proven optimum.
  /// The optimum when proven, else the best-weight model found so far.
  std::vector<bool> assignment;
};

/// Exact weighted partial MaxSAT via WPM1 (Fu–Malik with weight
/// stratification) on the incremental CDCL core: every soft clause C_i
/// gets a blocking variable b_i and the hard clause (C_i ∨ b_i); solving
/// under assumptions {¬b_i} either yields an optimal model or an unsat
/// core of soft clauses, which is relaxed with fresh relaxation variables
/// under an exactly-one constraint and charged the core's minimum weight.
/// Weights are processed in descending strata so expensive obligations are
/// settled first — which also makes every intermediate model a valid
/// anytime answer if the conflict budget runs out. The budget is shared by
/// every SAT call of the search: each call gets what the earlier ones left.
CdclOutcome RunCdcl(const MaxSatInstance& instance,
                    const MaxSatOptions& options) {
  const int n = instance.num_vars;
  constexpr double kWeightFloor = 1e-12;

  sat::SolverOptions sat_options;
  sat_options.seed = DeriveSeed(options.seed, kMaxSatCdclStream);
  sat::Solver solver(sat_options);
  auto solve = [&](const std::vector<sat::Lit>& assumptions) {
    const int64_t left =
        options.max_conflicts < 0
            ? -1
            : std::max<int64_t>(
                  0, options.max_conflicts - solver.stats().conflicts);
    return solver.Solve(assumptions, left);
  };
  for (int i = 0; i < n; ++i) solver.NewVar();

  struct Soft {
    std::vector<sat::Lit> lits;  ///< Current clause (original ∪ relax vars).
    double weight = 0.0;         ///< Residual weight.
    sat::Lit assume = sat::kLitUndef;  ///< ¬b_i assumption literal.
    bool active = false;
  };
  std::vector<Soft> softs;
  bool root_conflict = false;

  for (const Clause& c : instance.clauses) {
    std::vector<sat::Lit> lits;
    lits.reserve(c.literals.size());
    for (const Literal& l : c.literals) {
      lits.push_back(sat::MakeLit(l.var, l.negated));
    }
    if (c.hard) {
      if (!solver.AddClause(std::move(lits))) root_conflict = true;
    } else if (c.weight > 0.0) {
      Soft s;
      s.lits = std::move(lits);
      s.weight = c.weight;
      softs.push_back(std::move(s));
    } else if (c.weight < 0.0) {
      // Negative weight rewards *falsifying* C. Introduce z ≡ C and
      // penalize z with the soft unit (¬z, |w|).
      sat::Var z = solver.NewVar();
      for (sat::Lit l : lits) {
        if (!solver.AddClause({~l, sat::MakeLit(z)})) root_conflict = true;
      }
      lits.push_back(~sat::MakeLit(z));
      if (!solver.AddClause(std::move(lits))) root_conflict = true;
      Soft s;
      s.lits = {~sat::MakeLit(z)};
      s.weight = -c.weight;
      softs.push_back(std::move(s));
    }
    // Zero-weight soft clauses cannot affect the optimum; dropped.
  }
  if (root_conflict || !solver.Okay()) return {};  // hard clauses UNSAT

  // Blocking variables and relaxable hard copies (C_i ∨ b_i).
  std::unordered_map<int, int> soft_of_assume;  // LitIndex(assume) -> index
  for (std::size_t i = 0; i < softs.size(); ++i) {
    sat::Var b = solver.NewVar();
    std::vector<sat::Lit> cl = softs[i].lits;
    cl.push_back(sat::MakeLit(b));
    if (!solver.AddClause(std::move(cl))) return {};
    softs[i].assume = sat::MakeLit(b, /*negated=*/true);
    soft_of_assume[sat::LitIndex(softs[i].assume)] = static_cast<int>(i);
  }

  CdclOutcome out;
  std::vector<bool> model;  // latest model
  double best_weight = 0.0;
  auto record_model = [&] {
    model.assign(static_cast<std::size_t>(n), false);
    for (int i = 0; i < n; ++i) {
      model[static_cast<std::size_t>(i)] =
          solver.ModelValue(i) == sat::LBool::kTrue;
    }
    const double weight = SatisfiedWeight(instance, model);
    if (!out.have_model || weight > best_weight) {
      out.assignment = model;
      best_weight = weight;
    }
    out.have_model = true;
  };
  auto finish = [&](CdclOutcome result) {
    RecordSatTelemetry("maxsat", solver.stats());
    return result;
  };

  // Hard-only feasibility first — establishes the anytime baseline model.
  sat::Solver::Outcome res = solve({});
  if (res == sat::Solver::Outcome::kUnsat) return finish({});
  if (res == sat::Solver::Outcome::kUnknown) return finish(std::move(out));
  record_model();

  // Descending strata of distinct original weights.
  std::vector<double> strata;
  for (const Soft& s : softs) strata.push_back(s.weight);
  std::sort(strata.begin(), strata.end(), std::greater<double>());
  strata.erase(std::unique(strata.begin(), strata.end()), strata.end());

  std::vector<sat::Lit> assumptions;
  for (double stratum : strata) {
    for (Soft& s : softs) {
      if (!s.active && s.weight >= stratum) s.active = true;
    }
    for (;;) {
      assumptions.clear();
      for (const Soft& s : softs) {
        if (s.active && s.weight > kWeightFloor) assumptions.push_back(s.assume);
      }
      res = solve(assumptions);
      if (res == sat::Solver::Outcome::kSat) {
        record_model();
        break;
      }
      if (res == sat::Solver::Outcome::kUnknown) return finish(std::move(out));

      const std::vector<sat::Lit>& core = solver.FailedAssumptions();
      if (core.empty()) return finish(std::move(out));  // defensive

      std::vector<int> core_idx;
      core_idx.reserve(core.size());
      double min_weight = std::numeric_limits<double>::infinity();
      for (sat::Lit a : core) {
        auto it = soft_of_assume.find(sat::LitIndex(a));
        if (it == soft_of_assume.end()) return finish(std::move(out));
        core_idx.push_back(it->second);
        min_weight = std::min(min_weight, softs[static_cast<std::size_t>(it->second)].weight);
      }
      std::sort(core_idx.begin(), core_idx.end());  // deterministic order

      if (core_idx.size() == 1) {
        // A single soft clause inconsistent with the hard clauses: its
        // whole weight is forfeit and no relaxation is needed.
        softs[static_cast<std::size_t>(core_idx[0])].weight = 0.0;
        continue;
      }

      // Fu–Malik relaxation: split each core member into a residual part
      // (same assumption) and a relaxed copy (C ∨ r, min_weight) with a
      // fresh blocking variable, then force exactly one relaxation.
      std::vector<sat::Lit> relax;
      relax.reserve(core_idx.size());
      for (int idx : core_idx) {
        Soft& s = softs[static_cast<std::size_t>(idx)];
        s.weight -= min_weight;
        if (s.weight < kWeightFloor) s.weight = 0.0;

        sat::Var r = solver.NewVar();
        relax.push_back(sat::MakeLit(r));
        sat::Var b = solver.NewVar();

        Soft relaxed;
        relaxed.lits = s.lits;
        relaxed.lits.push_back(sat::MakeLit(r));
        relaxed.weight = min_weight;
        relaxed.assume = sat::MakeLit(b, /*negated=*/true);
        relaxed.active = true;

        std::vector<sat::Lit> cl = relaxed.lits;
        cl.push_back(sat::MakeLit(b));
        if (!solver.AddClause(std::move(cl))) return finish(std::move(out));
        soft_of_assume[sat::LitIndex(relaxed.assume)] =
            static_cast<int>(softs.size());
        softs.push_back(std::move(relaxed));
      }
      if (!solver.AddClause(relax)) return finish(std::move(out));
      for (std::size_t i = 0; i < relax.size(); ++i) {
        for (std::size_t j = i + 1; j < relax.size(); ++j) {
          if (!solver.AddClause({~relax[i], ~relax[j]})) {
            return finish(std::move(out));
          }
        }
      }
    }
  }
  out.proven = true;
  out.assignment = std::move(model);  // later strata refine earlier models
  return finish(std::move(out));
}

}  // namespace

Result<MaxSatSolution> SolveMaxSat(const MaxSatInstance& instance,
                                   const MaxSatOptions& options) {
  const int n = instance.num_vars;
  if (n < 0) return Status::InvalidArgument("SolveMaxSat: negative num_vars");
  for (const Clause& c : instance.clauses) {
    for (const Literal& lit : c.literals) {
      if (lit.var < 0 || lit.var >= n) {
        return Status::OutOfRange(
            StrFormat("SolveMaxSat: literal var %d out of range", lit.var));
      }
    }
  }

  MaxSatSolution solution;
  CdclOutcome cdcl = RunCdcl(instance, options);
  solution.assignment = std::move(cdcl.assignment);
  solution.assignment.resize(static_cast<std::size_t>(n), false);
  if (!cdcl.have_model) return solution;  // hard_satisfied stays false
  // Every model of the SAT core satisfies the hard clauses it was given.
  solution.hard_satisfied = true;
  solution.optimal = cdcl.proven;
  solution.satisfied_weight = SatisfiedWeight(instance, solution.assignment);
  return solution;
}

}  // namespace fairbench
