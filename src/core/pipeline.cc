#include "core/pipeline.h"

#include "common/string_util.h"
#include "common/timer.h"
#include "serve/artifact.h"

namespace fairbench {

Pipeline::Pipeline(std::unique_ptr<PreProcessor> pre,
                   std::unique_ptr<InProcessor> in_processor,
                   std::unique_ptr<PostProcessor> post,
                   bool include_sensitive_feature)
    : pre_(std::move(pre)),
      in_(std::move(in_processor)),
      post_(std::move(post)),
      include_sensitive_feature_(include_sensitive_feature),
      model_(std::make_unique<LogisticRegression>()) {}

void Pipeline::SetBaseClassifier(std::unique_ptr<Classifier> classifier) {
  if (classifier != nullptr) model_ = std::move(classifier);
}

Status Pipeline::Fit(const Dataset& train, const FairContext& context) {
  fitted_ = false;
  timing_ = Timing();
  Timer timer;

  // Stage 1: pre-processing repair.
  const Dataset* effective = &train;
  Dataset repaired;
  if (pre_ != nullptr) {
    timer.Restart();
    FAIRBENCH_ASSIGN_OR_RETURN(repaired, pre_->Repair(train, context));
    timing_.pre_seconds = timer.ElapsedSeconds();
    effective = &repaired;
  }

  // Stage 2: model training.
  timer.Restart();
  if (in_ != nullptr) {
    FAIRBENCH_RETURN_NOT_OK(in_->Fit(*effective, context));
  } else {
    FAIRBENCH_RETURN_NOT_OK(
        encoder_.Fit(*effective, include_sensitive_feature_));
    FAIRBENCH_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(*effective));
    FAIRBENCH_RETURN_NOT_OK(
        model_->Fit(x, effective->labels(), effective->weights()));
  }
  timing_.train_seconds = timer.ElapsedSeconds();

  // Stage 3: post-processing calibration on the training predictions.
  // `effective` is already repaired, so it is its own transformed view —
  // the prediction-time feature transform must not be applied twice.
  if (post_ != nullptr) {
    timer.Restart();
    std::vector<double> proba;
    proba.reserve(effective->num_rows());
    for (std::size_t r = 0; r < effective->num_rows(); ++r) {
      FAIRBENCH_ASSIGN_OR_RETURN(
          double p, ProbaFromView(*effective, r, effective->sensitive()[r]));
      proba.push_back(p);
    }
    FAIRBENCH_RETURN_NOT_OK(post_->Fit(proba, effective->labels(),
                                       effective->sensitive(), context));
    timing_.post_seconds = timer.ElapsedSeconds();
  }

  fitted_ = true;
  return Status::OK();
}

Result<Dataset> Pipeline::Transform(const Dataset& data, bool flip_s) const {
  if (!flip_s) return pre_->TransformFeatures(data);
  Dataset flipped = data;
  for (int& s : flipped.mutable_sensitive()) s = 1 - s;
  return pre_->TransformFeatures(flipped);
}

Result<double> Pipeline::ProbaFromView(const Dataset& view, std::size_t row,
                                       int s) const {
  if (in_ != nullptr) return in_->PredictProbaRow(view, row, s);
  FAIRBENCH_ASSIGN_OR_RETURN(Vector features,
                             encoder_.TransformRow(view, row, s));
  return model_->PredictProba(features);
}

Result<int> Pipeline::Label(double p, int s, std::size_t row) const {
  if (post_ != nullptr) return post_->Adjust(p, s, static_cast<uint64_t>(row));
  return p >= 0.5 ? 1 : 0;
}

Result<std::vector<double>> Pipeline::PredictProba(const Dataset& data) const {
  if (!fitted_) return Status::FailedPrecondition("Pipeline: not fitted");
  Dataset transformed;
  const Dataset* view = &data;
  if (TransformsFeatures()) {
    FAIRBENCH_ASSIGN_OR_RETURN(transformed, Transform(data, false));
    view = &transformed;
  }
  std::vector<double> proba;
  proba.reserve(data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    FAIRBENCH_ASSIGN_OR_RETURN(double p,
                               ProbaFromView(*view, r, data.sensitive()[r]));
    proba.push_back(p);
  }
  return proba;
}

Result<std::vector<int>> Pipeline::Predict(const Dataset& data) const {
  FAIRBENCH_ASSIGN_OR_RETURN(std::vector<double> proba, PredictProba(data));
  std::vector<int> out;
  out.reserve(proba.size());
  for (std::size_t r = 0; r < proba.size(); ++r) {
    FAIRBENCH_ASSIGN_OR_RETURN(int y, Label(proba[r], data.sensitive()[r], r));
    out.push_back(y);
  }
  return out;
}

RowPredictor Pipeline::MakeRowPredictor(const Dataset& data) const {
  if (!fitted_) {
    return [](std::size_t, int) -> Result<int> {
      return Status::FailedPrecondition("Pipeline: not fitted");
    };
  }
  if (!TransformsFeatures()) {
    return [this, &data](std::size_t row, int s) -> Result<int> {
      FAIRBENCH_ASSIGN_OR_RETURN(double p, ProbaFromView(data, row, s));
      return Label(p, s, row);
    };
  }
  struct Views {
    Result<Dataset> own;
    Result<Dataset> flipped;
  };
  auto views = std::make_shared<const Views>(
      Views{Transform(data, false), Transform(data, true)});
  return [this, &data, views](std::size_t row, int s) -> Result<int> {
    const Result<Dataset>& view =
        s == data.sensitive()[row] ? views->own : views->flipped;
    FAIRBENCH_RETURN_NOT_OK(view.status());
    FAIRBENCH_ASSIGN_OR_RETURN(double p, ProbaFromView(view.value(), row, s));
    return Label(p, s, row);
  };
}

std::string Pipeline::Describe() const {
  std::string out;
  if (pre_ != nullptr) out += pre_->name() + " + ";
  out += in_ != nullptr ? in_->name() : "LR";
  if (post_ != nullptr) out += " + " + post_->name();
  return out;
}

Status Pipeline::SaveState(ArtifactWriter* writer) const {
  if (!fitted_) {
    return Status::FailedPrecondition("Pipeline: cannot save before Fit()");
  }
  writer->WriteTag(ArtifactTag('P', 'I', 'P', 'E'));
  writer->WriteBool(include_sensitive_feature_);
  writer->WriteBool(pre_ != nullptr);
  if (pre_ != nullptr) FAIRBENCH_RETURN_NOT_OK(pre_->SaveState(writer));
  writer->WriteBool(in_ != nullptr);
  if (in_ != nullptr) {
    FAIRBENCH_RETURN_NOT_OK(in_->SaveState(writer));
  } else {
    writer->WriteString(model_->TypeName());
    FAIRBENCH_RETURN_NOT_OK(encoder_.SaveState(writer));
    FAIRBENCH_RETURN_NOT_OK(model_->SaveState(writer));
  }
  writer->WriteBool(post_ != nullptr);
  if (post_ != nullptr) FAIRBENCH_RETURN_NOT_OK(post_->SaveState(writer));
  return Status::OK();
}

Status Pipeline::LoadState(ArtifactReader* reader) {
  FAIRBENCH_RETURN_NOT_OK(reader->ExpectTag(ArtifactTag('P', 'I', 'P', 'E')));
  FAIRBENCH_ASSIGN_OR_RETURN(bool include_s, reader->ReadBool());
  if (include_s != include_sensitive_feature_) {
    return Status::InvalidArgument(
        "Pipeline artifact does not match structure: include-sensitive flag "
        "differs");
  }
  FAIRBENCH_ASSIGN_OR_RETURN(bool has_pre, reader->ReadBool());
  if (has_pre != (pre_ != nullptr)) {
    return Status::InvalidArgument(
        "Pipeline artifact does not match structure: pre-processor presence "
        "differs");
  }
  if (pre_ != nullptr) FAIRBENCH_RETURN_NOT_OK(pre_->LoadState(reader));
  FAIRBENCH_ASSIGN_OR_RETURN(bool has_in, reader->ReadBool());
  if (has_in != (in_ != nullptr)) {
    return Status::InvalidArgument(
        "Pipeline artifact does not match structure: in-processor presence "
        "differs");
  }
  if (in_ != nullptr) {
    FAIRBENCH_RETURN_NOT_OK(in_->LoadState(reader));
  } else {
    FAIRBENCH_ASSIGN_OR_RETURN(std::string model_type, reader->ReadString());
    if (model_type != model_->TypeName()) {
      return Status::InvalidArgument(
          StrFormat("Pipeline artifact does not match structure: base model "
                    "'%s' vs '%s'",
                    model_type.c_str(), model_->TypeName()));
    }
    FAIRBENCH_RETURN_NOT_OK(encoder_.LoadState(reader));
    FAIRBENCH_RETURN_NOT_OK(model_->LoadState(reader));
  }
  FAIRBENCH_ASSIGN_OR_RETURN(bool has_post, reader->ReadBool());
  if (has_post != (post_ != nullptr)) {
    return Status::InvalidArgument(
        "Pipeline artifact does not match structure: post-processor presence "
        "differs");
  }
  if (post_ != nullptr) FAIRBENCH_RETURN_NOT_OK(post_->LoadState(reader));
  timing_ = Timing();
  fitted_ = true;
  return Status::OK();
}

PipelineBuilder& PipelineBuilder::Pre(std::unique_ptr<PreProcessor> pre) {
  pre_ = std::move(pre);
  return *this;
}

PipelineBuilder& PipelineBuilder::In(std::unique_ptr<InProcessor> in_processor) {
  in_ = std::move(in_processor);
  return *this;
}

PipelineBuilder& PipelineBuilder::Post(std::unique_ptr<PostProcessor> post) {
  post_ = std::move(post);
  return *this;
}

PipelineBuilder& PipelineBuilder::IncludeSensitiveFeature(bool include) {
  include_sensitive_feature_ = include;
  return *this;
}

PipelineBuilder& PipelineBuilder::BaseClassifier(
    std::unique_ptr<Classifier> classifier) {
  base_ = std::move(classifier);
  return *this;
}

Pipeline PipelineBuilder::Build() {
  Pipeline pipeline(std::move(pre_), std::move(in_), std::move(post_),
                    include_sensitive_feature_);
  if (base_ != nullptr) pipeline.SetBaseClassifier(std::move(base_));
  return pipeline;
}

}  // namespace fairbench
