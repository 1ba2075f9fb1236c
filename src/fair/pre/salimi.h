#ifndef FAIRBENCH_FAIR_PRE_SALIMI_H_
#define FAIRBENCH_FAIR_PRE_SALIMI_H_

#include <cstddef>
#include <string>

#include "fair/method.h"

namespace fairbench {

/// Repair engine selection for SALIMI (paper Fig 8 lists both).
enum class SalimiVariant {
  kMaxSat,  ///< Weighted MaxSAT over cell-presence variables.
  kMatFac,  ///< Rank-1 non-negative matrix factorization per block.
};

/// Options for SALIMI.
struct SalimiOptions {
  SalimiVariant variant = SalimiVariant::kMaxSat;
  std::size_t bins = 3;              ///< Discretization granularity.
  std::size_t max_admissible = 3;    ///< Admissible attrs used in A-blocks.
  std::size_t max_inadmissible = 2;  ///< Inadmissible attrs beyond S.
};

/// SALIMI (Salimi et al. 2019, "Interventional fairness: causal database
/// repair for algorithmic fairness") — pre-processing for justifiable
/// fairness.
///
/// The approach marks attributes admissible (A) or inadmissible (I; always
/// including S) and repairs the training data by tuple insertions and
/// deletions until the multivalued dependency D = Pi_{A,Y}(D) |x| Pi_{Y,I}(D)
/// holds — i.e. Y is independent of I conditioned on A (paper Appendix
/// A.1.5). FairBench blocks the discretized data by A-configuration; within
/// each block the presence pattern over (Y, I-configuration) cells must be
/// a cross product, which is enforced either by weighted MaxSAT over cell
/// presences (deletion weighted by tuple count, insertion by a unit cost)
/// or by rounding each block's count matrix to its nearest rank-1
/// (= independent) completion via NMF. To bound the NP-hard search, the
/// A-blocks use the `max_admissible` attributes most informative of Y and
/// the I-cells use S plus the `max_inadmissible` most informative
/// inadmissible attributes, mirroring the reference implementation's
/// saturated-constraint restriction.
class Salimi final : public PreProcessor {
 public:
  explicit Salimi(SalimiOptions options = {}) : options_(options) {}

  std::string name() const override {
    return options_.variant == SalimiVariant::kMaxSat ? "Salimi-JF(MaxSAT)"
                                                      : "Salimi-JF(MatFac)";
  }
  Result<Dataset> Repair(const Dataset& train,
                         const FairContext& context) override;

 private:
  SalimiOptions options_;
};

}  // namespace fairbench

#endif  // FAIRBENCH_FAIR_PRE_SALIMI_H_
