#ifndef FAIRBENCH_METRICS_CAUSAL_DISCRIMINATION_H_
#define FAIRBENCH_METRICS_CAUSAL_DISCRIMINATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/result.h"
#include "data/dataset.h"

namespace fairbench {

/// Prediction oracle for one dataset row with the sensitive attribute
/// forced to `s_override`. Pipelines bind this so CD exercises the *whole*
/// model, including post-processing that reads S. CD may call it from
/// several threads at once, so it must not mutate shared state;
/// Pipeline::MakeRowPredictor does all its preparation up front.
using RowPredictor =
    std::function<Result<int>(std::size_t row, int s_override)>;

/// Parameters of the CD estimator (paper §4.1: 99% confidence, 1% error).
struct CdOptions {
  double confidence = 0.99;
  double error_bound = 0.01;
  uint64_t seed = 0x6cd5eedull;
  /// Worker count for the intervention-sampling loop (the most expensive
  /// inner loop in the repo): 1 = serial (default — experiment drivers
  /// already fan out across approaches), 0 = hardware concurrency. The
  /// estimate is bit-identical for every value; see src/exec.
  std::size_t threads = 1;
};

/// Causal Discrimination (paper Fig 6): the fraction of tuples whose
/// prediction flips when S is flipped with everything else held fixed —
/// an individual, causal, interventional metric.
///
/// Following the paper's practical heuristic, interventions are limited to
/// the dataset's own tuples; when the dataset exceeds the Hoeffding sample
/// size implied by (confidence, error_bound), a uniform sample of that size
/// is used, making the estimate accurate to ±error_bound with the stated
/// confidence.
Result<double> CausalDiscrimination(const Dataset& dataset,
                                    const RowPredictor& predictor,
                                    const CdOptions& options = {});

}  // namespace fairbench

#endif  // FAIRBENCH_METRICS_CAUSAL_DISCRIMINATION_H_
