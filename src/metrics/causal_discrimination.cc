#include "metrics/causal_discrimination.h"

#include <cmath>
#include <cstdint>

#include "common/random.h"
#include "data/split.h"
#include "exec/parallel_for.h"
#include "stats/bounds.h"

namespace fairbench {

Result<double> CausalDiscrimination(const Dataset& dataset,
                                    const RowPredictor& predictor,
                                    const CdOptions& options) {
  if (!predictor) {
    return Status::InvalidArgument("CausalDiscrimination: null predictor");
  }
  // Written so that a NaN fails: every comparison with NaN is false.
  if (!(options.confidence > 0.0 && options.confidence < 1.0) ||
      !(options.error_bound > 0.0 && std::isfinite(options.error_bound))) {
    return Status::InvalidArgument("CausalDiscrimination: bad options");
  }
  const std::size_t n = dataset.num_rows();
  if (n == 0) return 0.0;

  const std::size_t target =
      HoeffdingSampleSize(options.error_bound, options.confidence);
  std::vector<std::size_t> rows;
  if (target < n) {
    Rng rng(options.seed);
    rows = SampleWithoutReplacement(n, target, rng);
  } else {
    rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  }

  ParallelOptions parallel;
  parallel.threads = options.threads;
  // A do(S) probe is a full per-row model evaluation; chunks below this
  // size would be dominated by handoff overhead.
  parallel.min_chunk = 16;

  // One index-addressed slot per sampled row: the flip count is a sum of
  // per-slot indicators, so the chunk schedule cannot change the result.
  std::vector<uint8_t> flipped(rows.size(), 0);
  FAIRBENCH_RETURN_NOT_OK(ParallelFor(
      rows.size(),
      [&](std::size_t k) -> Status {
        const std::size_t row = rows[k];
        const int s = dataset.sensitive()[row];
        FAIRBENCH_ASSIGN_OR_RETURN(int y_orig, predictor(row, s));
        FAIRBENCH_ASSIGN_OR_RETURN(int y_flip, predictor(row, 1 - s));
        flipped[k] = y_orig != y_flip ? 1 : 0;
        return Status::OK();
      },
      parallel));

  std::size_t flips = 0;
  for (uint8_t f : flipped) flips += f;
  return static_cast<double>(flips) / static_cast<double>(rows.size());
}

}  // namespace fairbench
