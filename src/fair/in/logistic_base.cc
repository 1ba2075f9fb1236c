#include "fair/in/logistic_base.h"

#include <cmath>

#include "serve/artifact.h"

namespace fairbench {

Result<double> EncodedLogisticInProcessor::PredictProbaRow(
    const Dataset& data, std::size_t row, int s_override) const {
  if (!model_.fitted()) {
    return Status::FailedPrecondition(name() + ": not fitted");
  }
  FAIRBENCH_ASSIGN_OR_RETURN(Vector features,
                             encoder_.TransformRow(data, row, s_override));
  return model_.PredictProba(features);
}

Status EncodedLogisticInProcessor::SaveState(ArtifactWriter* writer) const {
  if (!model_.fitted()) {
    return Status::FailedPrecondition(name() + ": cannot save before Fit()");
  }
  writer->WriteTag(ArtifactTag('E', 'L', 'I', 'P'));
  FAIRBENCH_RETURN_NOT_OK(encoder_.SaveState(writer));
  return model_.SaveState(writer);
}

Status EncodedLogisticInProcessor::LoadState(ArtifactReader* reader) {
  FAIRBENCH_RETURN_NOT_OK(reader->ExpectTag(ArtifactTag('E', 'L', 'I', 'P')));
  FAIRBENCH_RETURN_NOT_OK(encoder_.LoadState(reader));
  return model_.LoadState(reader);
}

Status EncodedLogisticInProcessor::FitEncoder(const Dataset& train,
                                              bool include_sensitive) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument(name() + ": empty training set");
  }
  return encoder_.Fit(train, include_sensitive);
}

Result<Matrix> EncodedLogisticInProcessor::EncodeTrain(const Dataset& train,
                                                       bool include_sensitive) {
  FAIRBENCH_RETURN_NOT_OK(FitEncoder(train, include_sensitive));
  return encoder_.Transform(train);
}

Result<SparseMatrix> EncodedLogisticInProcessor::EncodeTrainSparse(
    const Dataset& train, bool include_sensitive) {
  FAIRBENCH_RETURN_NOT_OK(FitEncoder(train, include_sensitive));
  return encoder_.TransformSparse(train);
}

void EncodedLogisticInProcessor::InstallParameters(const Vector& theta) {
  Vector coef(theta.begin() + 1, theta.end());
  model_.SetParameters(std::move(coef), theta[0]);
}

double AccumulateLogLoss(const Matrix& x, const std::vector<int>& y,
                         const Vector& weights, const Vector& theta,
                         Vector* grad) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = x.Row(i);
    double z = theta[0];
    for (std::size_t j = 0; j < d; ++j) z += theta[j + 1] * row[j];
    const double p = LogisticRegression::Sigmoid(z);
    const double zpos = std::max(z, 0.0);
    loss += weights[i] *
            (zpos - z * y[i] + std::log(std::exp(-zpos) + std::exp(z - zpos)));
    const double g = weights[i] * (p - y[i]);
    (*grad)[0] += g;
    for (std::size_t j = 0; j < d; ++j) (*grad)[j + 1] += g * row[j];
  }
  return loss;
}

Vector DecisionValues(const Matrix& x, const Vector& theta) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  Vector z(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = x.Row(i);
    double zi = theta[0];
    for (std::size_t j = 0; j < d; ++j) zi += theta[j + 1] * row[j];
    z[i] = zi;
  }
  return z;
}

}  // namespace fairbench
