#ifndef FAIRBENCH_CAUSAL_INTERVENTION_H_
#define FAIRBENCH_CAUSAL_INTERVENTION_H_

#include <cstddef>
#include <cstdint>

#include "causal/bayes_net.h"
#include "common/result.h"

namespace fairbench {

/// Options for Monte-Carlo intervention estimates.
struct InterventionOptions {
  std::size_t num_samples = 20000;
  uint64_t seed = 0xd0ca15a1ull;
};

/// Average causal effect of the sensitive attribute on the label:
///   ACE = Pr(Y = 1 | do(S = 1)) - Pr(Y = 1 | do(S = 0)),
/// estimated by forward sampling from the mutilated network. Positive ACE
/// means being privileged causally raises the favorable-outcome rate —
/// the quantity ZHA-WU tests against its epsilon threshold.
Result<double> AverageCausalEffect(const BayesNet& bn, int s_var, int y_var,
                                   const InterventionOptions& options = {});

}  // namespace fairbench

#endif  // FAIRBENCH_CAUSAL_INTERVENTION_H_
