#include "fair/pre/salimi.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "data/discretizer.h"
#include "optim/maxsat.h"
#include "optim/nmf.h"
#include "stats/contingency.h"

namespace fairbench {
namespace {

/// Picks up to `limit` column indices from `candidates`, ranked by mutual
/// information of their discretized codes with the labels.
Result<std::vector<std::size_t>> TopByLabelMi(
    const Dataset& train, const Discretizer& disc,
    const std::vector<std::size_t>& candidates, std::size_t limit) {
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t c : candidates) {
    FAIRBENCH_ASSIGN_OR_RETURN(std::vector<int> codes, disc.Codes(train, c));
    FAIRBENCH_ASSIGN_OR_RETURN(
        ContingencyTable t,
        ContingencyTable::FromCodes(codes, disc.Cardinality(c), train.labels(),
                                    2, {}));
    ranked.emplace_back(-MutualInformation(t), c);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ranked.size() && i < limit; ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

/// A cell inside one A-block: a (label, I-configuration) pair with its
/// member rows.
struct Cell {
  int y = 0;
  std::size_t i_config = 0;
  std::vector<std::size_t> rows;
};

struct Block {
  std::vector<Cell> cells;
  std::vector<std::size_t> i_configs;  ///< Distinct I-configs, sorted.
};

/// Applies a per-cell decision (keep count) to build the repaired row
/// list. `target` < current count deletes the tail; `target` > 0 with an
/// empty cell inserts clones of a donor from the same I-config with the
/// label overridden.
struct RepairPlan {
  std::vector<std::size_t> kept_rows;
  std::vector<std::pair<std::size_t, int>> inserts;  ///< (donor row, label).
};

void ApplyCellTarget(const Block& block, const Cell& cell, std::size_t target,
                     RepairPlan* plan) {
  const std::size_t keep = std::min(target, cell.rows.size());
  for (std::size_t k = 0; k < keep; ++k) plan->kept_rows.push_back(cell.rows[k]);
  if (target > cell.rows.size()) {
    // Need insertions: find a donor with the same I-config (any label).
    std::size_t donor = SIZE_MAX;
    for (const Cell& other : block.cells) {
      if (other.i_config == cell.i_config && !other.rows.empty()) {
        donor = other.rows.front();
        break;
      }
    }
    if (donor == SIZE_MAX) return;  // No donor: skip (cannot materialize).
    for (std::size_t k = cell.rows.size(); k < target; ++k) {
      plan->inserts.emplace_back(donor, cell.y);
    }
  }
}

}  // namespace

Result<Dataset> Salimi::Repair(const Dataset& train, const FairContext& context) {
  FAIRBENCH_RETURN_NOT_OK(train.Validate());
  const std::size_t n = train.num_rows();
  if (n == 0) return Status::InvalidArgument("Salimi: empty training data");

  Discretizer disc(options_.bins);
  FAIRBENCH_RETURN_NOT_OK(disc.Fit(train));

  // Partition attributes: inadmissible by name (paper: race, gender,
  // marital/relationship status), the rest admissible.
  std::vector<std::size_t> admissible;
  std::vector<std::size_t> inadmissible;
  for (std::size_t c = 0; c < train.num_features(); ++c) {
    const std::string& name = train.schema().column(c).name;
    const bool inad =
        std::find(context.inadmissible_attributes.begin(),
                  context.inadmissible_attributes.end(),
                  name) != context.inadmissible_attributes.end();
    (inad ? inadmissible : admissible).push_back(c);
  }
  FAIRBENCH_ASSIGN_OR_RETURN(
      std::vector<std::size_t> a_cols,
      TopByLabelMi(train, disc, admissible, options_.max_admissible));
  FAIRBENCH_ASSIGN_OR_RETURN(
      std::vector<std::size_t> i_cols,
      TopByLabelMi(train, disc, inadmissible, options_.max_inadmissible));

  // Pre-compute codes.
  std::unordered_map<std::size_t, std::vector<int>> codes;
  for (std::size_t c : a_cols) {
    FAIRBENCH_ASSIGN_OR_RETURN(codes[c], disc.Codes(train, c));
  }
  for (std::size_t c : i_cols) {
    FAIRBENCH_ASSIGN_OR_RETURN(codes[c], disc.Codes(train, c));
  }

  // Config keys. I-config always includes S.
  auto a_key = [&](std::size_t r) {
    std::size_t key = 0;
    for (std::size_t c : a_cols) {
      key = key * disc.Cardinality(c) +
            static_cast<std::size_t>(codes[c][r]);
    }
    return key;
  };
  auto i_key = [&](std::size_t r) {
    std::size_t key = static_cast<std::size_t>(train.sensitive()[r]);
    for (std::size_t c : i_cols) {
      key = key * disc.Cardinality(c) +
            static_cast<std::size_t>(codes[c][r]);
    }
    return key;
  };

  // Build blocks.
  std::map<std::size_t, Block> blocks;
  {
    std::map<std::size_t, std::map<std::pair<int, std::size_t>, std::vector<std::size_t>>>
        grouping;
    for (std::size_t r = 0; r < n; ++r) {
      grouping[a_key(r)][{train.labels()[r], i_key(r)}].push_back(r);
    }
    for (auto& [akey, cells] : grouping) {
      Block& block = blocks[akey];
      for (auto& [yi, rows] : cells) {
        Cell cell;
        cell.y = yi.first;
        cell.i_config = yi.second;
        cell.rows = std::move(rows);
        block.cells.push_back(std::move(cell));
        if (std::find(block.i_configs.begin(), block.i_configs.end(),
                      yi.second) == block.i_configs.end()) {
          block.i_configs.push_back(yi.second);
        }
      }
      std::sort(block.i_configs.begin(), block.i_configs.end());
    }
  }

  RepairPlan plan;
  for (auto& [akey, block] : blocks) {
    // Distinct labels present in the block.
    std::vector<int> labels_present;
    for (const Cell& cell : block.cells) {
      if (std::find(labels_present.begin(), labels_present.end(), cell.y) ==
          labels_present.end()) {
        labels_present.push_back(cell.y);
      }
    }
    std::sort(labels_present.begin(), labels_present.end());
    const std::size_t ni = block.i_configs.size();
    const std::size_t ny = labels_present.size();
    auto cell_count = [&](int y, std::size_t icfg) -> const Cell* {
      for (const Cell& cell : block.cells) {
        if (cell.y == y && cell.i_config == icfg) return &cell;
      }
      return nullptr;
    };

    if (ny < 2 || ni < 2) {
      // MVD trivially satisfiable: keep everything.
      for (const Cell& cell : block.cells) {
        for (std::size_t r : cell.rows) plan.kept_rows.push_back(r);
      }
      continue;
    }

    if (options_.variant == SalimiVariant::kMaxSat) {
      // Presence variable per (y, i-config) combination.
      MaxSatInstance inst;
      inst.num_vars = static_cast<int>(ny * ni);
      auto var_of = [&](std::size_t yi, std::size_t ii) {
        return static_cast<int>(yi * ni + ii);
      };
      // Soft preferences: keep present cells (weight = tuple count),
      // avoid inserting absent ones (unit weight).
      for (std::size_t yi = 0; yi < ny; ++yi) {
        for (std::size_t ii = 0; ii < ni; ++ii) {
          const Cell* cell = cell_count(labels_present[yi], block.i_configs[ii]);
          Clause soft;
          if (cell != nullptr) {
            soft.literals = {{var_of(yi, ii), false}};
            soft.weight = static_cast<double>(cell->rows.size());
          } else {
            soft.literals = {{var_of(yi, ii), true}};
            soft.weight = 1.0;
          }
          inst.clauses.push_back(std::move(soft));
        }
      }
      // Hard cross-product closure: p(y1,i1) & p(y2,i2) -> p(y1,i2).
      for (std::size_t y1 = 0; y1 < ny; ++y1) {
        for (std::size_t y2 = 0; y2 < ny; ++y2) {
          if (y1 == y2) continue;
          for (std::size_t i1 = 0; i1 < ni; ++i1) {
            for (std::size_t i2 = 0; i2 < ni; ++i2) {
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
      MaxSatOptions ms;
      // Index-addressed seed stream per A-block (see common/random.h):
      // independent of block visit order and of every other consumer of
      // context.seed. The solver derives its own sub-stream from it.
      ms.seed = DeriveSeed(context.seed, akey);
      FAIRBENCH_ASSIGN_OR_RETURN(MaxSatSolution sol, SolveMaxSat(inst, ms));
      if (!sol.hard_satisfied) {
        // No model within the conflict budget. All-present is always
        // feasible; use it as the safe fallback.
        sol.assignment.assign(static_cast<std::size_t>(inst.num_vars), true);
      }
      for (std::size_t yi = 0; yi < ny; ++yi) {
        for (std::size_t ii = 0; ii < ni; ++ii) {
          const bool present =
              sol.assignment[static_cast<std::size_t>(var_of(yi, ii))];
          const Cell* cell = cell_count(labels_present[yi], block.i_configs[ii]);
          Cell synthetic;
          if (cell == nullptr) {
            synthetic.y = labels_present[yi];
            synthetic.i_config = block.i_configs[ii];
            cell = &synthetic;
          }
          ApplyCellTarget(block, *cell,
                          present ? std::max<std::size_t>(cell->rows.size(), 1)
                                  : 0,
                          &plan);
        }
      }
    } else {
      // MatFac: round the block's (label x I-config) count matrix to its
      // nearest rank-1 (= independent) non-negative completion.
      Matrix v(ny, ni, 0.0);
      for (std::size_t yi = 0; yi < ny; ++yi) {
        for (std::size_t ii = 0; ii < ni; ++ii) {
          const Cell* cell = cell_count(labels_present[yi], block.i_configs[ii]);
          v(yi, ii) = cell != nullptr ? static_cast<double>(cell->rows.size())
                                      : 0.0;
        }
      }
      NmfOptions nmf;
      nmf.rank = 1;
      nmf.seed = context.seed ^ (akey * 0x5851f42dull);
      FAIRBENCH_ASSIGN_OR_RETURN(NmfResult fac, FactorizeNmf(v, nmf));
      const Matrix target = fac.w.MatMul(fac.h);
      for (std::size_t yi = 0; yi < ny; ++yi) {
        for (std::size_t ii = 0; ii < ni; ++ii) {
          const Cell* cell = cell_count(labels_present[yi], block.i_configs[ii]);
          Cell synthetic;
          if (cell == nullptr) {
            synthetic.y = labels_present[yi];
            synthetic.i_config = block.i_configs[ii];
            cell = &synthetic;
          }
          const std::size_t goal = static_cast<std::size_t>(
              std::llround(std::max(0.0, target(yi, ii))));
          ApplyCellTarget(block, *cell, goal, &plan);
        }
      }
    }
  }

  // Materialize: kept rows first, then donor clones with overridden labels.
  std::vector<std::size_t> indices = plan.kept_rows;
  for (const auto& [donor, label] : plan.inserts) indices.push_back(donor);
  FAIRBENCH_ASSIGN_OR_RETURN(Dataset out, train.SelectRows(indices));
  for (std::size_t k = 0; k < plan.inserts.size(); ++k) {
    out.mutable_labels()[plan.kept_rows.size() + k] = plan.inserts[k].second;
  }
  if (out.num_rows() == 0) {
    return Status::Internal("Salimi: repair removed all tuples");
  }
  return out;
}

}  // namespace fairbench
