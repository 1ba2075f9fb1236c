#include "causal/intervention.h"

namespace fairbench {

Result<double> AverageCausalEffect(const BayesNet& bn, int s_var, int y_var,
                                   const InterventionOptions& options) {
  const int nv = static_cast<int>(bn.num_vars());
  if (s_var < 0 || s_var >= nv || y_var < 0 || y_var >= nv || s_var == y_var) {
    return Status::InvalidArgument("AverageCausalEffect: bad variable indices");
  }
  if (bn.cardinality(s_var) < 2 || bn.cardinality(y_var) < 2) {
    return Status::InvalidArgument(
        "AverageCausalEffect: S and Y must be at least binary");
  }
  const double p1 = bn.EstimateDoProbability(y_var, 1, s_var, 1,
                                             options.num_samples, options.seed);
  const double p0 = bn.EstimateDoProbability(y_var, 1, s_var, 0,
                                             options.num_samples,
                                             options.seed ^ 0x9e3779b9ull);
  return p1 - p0;
}

}  // namespace fairbench
