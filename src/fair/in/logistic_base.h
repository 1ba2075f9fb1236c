#ifndef FAIRBENCH_FAIR_IN_LOGISTIC_BASE_H_
#define FAIRBENCH_FAIR_IN_LOGISTIC_BASE_H_

#include "classifiers/logistic_regression.h"
#include "data/encoder.h"
#include "fair/method.h"
#include "linalg/matrix.h"

namespace fairbench {

/// Shared machinery for in-processing approaches that learn a (possibly
/// constrained) logistic model over encoded features: owns the feature
/// encoder and the fitted model, and implements per-row prediction with
/// do(S) overrides for the Causal Discrimination metric.
class EncodedLogisticInProcessor : public InProcessor {
 public:
  Result<double> PredictProbaRow(const Dataset& data, std::size_t row,
                                 int s_override) const override;

  /// All encoded-logistic approaches persist the same state — the fitted
  /// encoder plus the (constrained-)optimized logistic parameters — so the
  /// base class serializes for every subclass.
  Status SaveState(ArtifactWriter* writer) const override;
  Status LoadState(ArtifactReader* reader) override;

 protected:
  /// Fits the encoder on `train` and returns the design matrix. Every
  /// approach trains through this or EncodeTrainSparse, so both refuse an
  /// empty training set with InvalidArgument.
  Result<Matrix> EncodeTrain(const Dataset& train, bool include_sensitive);

  /// Fits the encoder on `train` and returns the design directly as
  /// canonical CSR (FeatureEncoder::TransformSparse) — same encoding as
  /// EncodeTrain without ever materializing the dense matrix. Used by the
  /// sparse CG-Newton training paths.
  Result<SparseMatrix> EncodeTrainSparse(const Dataset& train,
                                         bool include_sensitive);

  /// Installs optimized parameters theta = [intercept, w...] into model_.
  void InstallParameters(const Vector& theta);

  FeatureEncoder encoder_;
  LogisticRegression model_;

 private:
  /// Shared front of EncodeTrain/EncodeTrainSparse: rejects zero rows,
  /// then fits encoder_.
  Status FitEncoder(const Dataset& train, bool include_sensitive);
};

/// Adds the weighted logistic log-loss of theta = [intercept, w...] over
/// (x, y, w) to *loss and its gradient into *grad (both pre-initialized by
/// the caller). Returns the added loss. Shared by the constrained
/// optimizers of ZAFAR / CELIS / THOMAS / ZHA-LE.
double AccumulateLogLoss(const Matrix& x, const std::vector<int>& y,
                         const Vector& weights, const Vector& theta,
                         Vector* grad);

/// Decision values z_i = intercept + w . x_i for all rows.
Vector DecisionValues(const Matrix& x, const Vector& theta);

}  // namespace fairbench

#endif  // FAIRBENCH_FAIR_IN_LOGISTIC_BASE_H_
