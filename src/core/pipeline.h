#ifndef FAIRBENCH_CORE_PIPELINE_H_
#define FAIRBENCH_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "classifiers/logistic_regression.h"
#include "data/encoder.h"
#include "fair/method.h"
#include "metrics/causal_discrimination.h"

namespace fairbench {

class ArtifactWriter;
class ArtifactReader;

/// A complete fair-classification pipeline composed from the paper's three
/// stages:
///
///   pre-processor (optional) -> model -> post-processor (optional)
///
/// where the model is either an InProcessor (which handles encoding and S
/// itself) or the default logistic regression over encoded features —
/// exactly how the paper pairs pre-/post-processing approaches with LR
/// (§4.1). Prediction is stateless: every answer depends only on the fitted
/// stages and the rows passed in. MakeRowPredictor adds do(S) overrides so
/// the Causal Discrimination metric probes everything, including
/// S-dependent post-processing. A fitted pipeline is safe to query from
/// many threads.
class Pipeline {
 public:
  /// Wall-clock breakdown of Fit(), matching the paper's runtime
  /// decomposition "pre-processing + training + post-processing".
  struct Timing {
    double pre_seconds = 0.0;
    double train_seconds = 0.0;
    double post_seconds = 0.0;
    double Total() const { return pre_seconds + train_seconds + post_seconds; }
  };

  /// Swaps the default logistic-regression base model for any Classifier
  /// (pre- and post-processing are model-agnostic — paper §3). Must be
  /// called before Fit(); ignored when an in-processor is present.
  void SetBaseClassifier(std::unique_ptr<Classifier> classifier);

  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// Runs the composed training: repair, fit, calibrate. Timing is
  /// recorded per stage.
  Status Fit(const Dataset& train, const FairContext& context);

  bool fitted() const { return fitted_; }
  const Timing& timing() const { return timing_; }

  /// Hard predictions for every row of `data`.
  Result<std::vector<int>> Predict(const Dataset& data) const;

  /// P(Y=1) for every row of `data`: the model probability before any
  /// post-processing adjustment.
  Result<std::vector<double>> PredictProba(const Dataset& data) const;

  /// Binds `data` into a RowPredictor for the CD metric. A feature-
  /// transforming pre-processor (Feld) maps `data` and its S-flipped twin
  /// here, once, and the predictor owns both, so it may be called from
  /// any number of threads. It borrows `data` and this pipeline.
  RowPredictor MakeRowPredictor(const Dataset& data) const;

  /// Human-readable composition, e.g. "KamCal-DP + LR".
  std::string Describe() const;

  /// Serializes every fitted stage (serve artifacts). The pipeline
  /// *structure* is not stored — artifacts are reloaded into a pipeline
  /// rebuilt from the registry — only the learned parameters are.
  Status SaveState(ArtifactWriter* writer) const;

  /// Restores the state written by SaveState into a structurally identical
  /// unfitted pipeline; refuses with InvalidArgument when the artifact's
  /// stage layout does not match this pipeline's.
  Status LoadState(ArtifactReader* reader);

 private:
  /// Positional construction is builder-only: the trailing bool was easy
  /// to mis-order against the three stage arguments, so PipelineBuilder's
  /// named setters are the sole public way to assemble a Pipeline.
  friend class PipelineBuilder;
  Pipeline(std::unique_ptr<PreProcessor> pre,
           std::unique_ptr<InProcessor> in_processor,
           std::unique_ptr<PostProcessor> post,
           bool include_sensitive_feature);

  /// `data` mapped through the fitted feature transform of a Feld-style
  /// pre-processor, with every S flipped first when `flip_s` is set (the
  /// repair map is group-conditional, so do(S) must route a tuple through
  /// the other group's map). Only called when TransformsFeatures().
  Result<Dataset> Transform(const Dataset& data, bool flip_s) const;

  bool TransformsFeatures() const {
    return pre_ != nullptr && pre_->TransformsFeatures();
  }

  /// P(Y=1) for `row` of `view` with S forced to `s`. `view` is already
  /// mapped through any feature transform; every prediction path, Fit's
  /// post-stage calibration included, goes through here.
  Result<double> ProbaFromView(const Dataset& view, std::size_t row,
                               int s) const;

  /// The post-processed label of a row whose model probability is `p`.
  Result<int> Label(double p, int s, std::size_t row) const;

  std::unique_ptr<PreProcessor> pre_;
  std::unique_ptr<InProcessor> in_;
  std::unique_ptr<PostProcessor> post_;
  bool include_sensitive_feature_;

  // Default-model path (used when in_ is null).
  FeatureEncoder encoder_;
  std::unique_ptr<Classifier> model_;

  bool fitted_ = false;
  Timing timing_;
};

/// Fluent, named-setter construction for Pipeline. Replaces the positional
/// constructor whose bool tail was easy to mis-order:
///
///   Pipeline p = PipelineBuilder()
///                    .Pre(std::make_unique<Feld>(1.0))
///                    .IncludeSensitiveFeature(false)
///                    .Build();
///
/// Unset stages stay null (skipped); the base classifier defaults to
/// logistic regression and IncludeSensitiveFeature defaults to true,
/// matching the old constructor.
class PipelineBuilder {
 public:
  PipelineBuilder& Pre(std::unique_ptr<PreProcessor> pre);
  PipelineBuilder& In(std::unique_ptr<InProcessor> in_processor);
  PipelineBuilder& Post(std::unique_ptr<PostProcessor> post);
  /// Whether the default base model sees S as a feature (ignored when an
  /// in-processor is set — those manage S themselves).
  PipelineBuilder& IncludeSensitiveFeature(bool include);
  /// Swaps the default logistic-regression base model (ignored when an
  /// in-processor is set).
  PipelineBuilder& BaseClassifier(std::unique_ptr<Classifier> classifier);

  /// Assembles the pipeline; the builder is spent afterwards.
  Pipeline Build();

 private:
  std::unique_ptr<PreProcessor> pre_;
  std::unique_ptr<InProcessor> in_;
  std::unique_ptr<PostProcessor> post_;
  std::unique_ptr<Classifier> base_;
  bool include_sensitive_feature_ = true;
};

}  // namespace fairbench

#endif  // FAIRBENCH_CORE_PIPELINE_H_
