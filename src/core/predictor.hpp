// GsightPredictor — the deployable predictor of Figure 6: solo-run
// profiles + spatial-temporal overlap codes in, QoS out, with an
// incremental model updated online from observed performance. One
// predictor instance targets one QoS metric (IPC, tail latency or JCT);
// the scheduler owns one per metric it cares about.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/encoder.hpp"
#include "ml/incremental_forest.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "ml/svr.hpp"

namespace gsight::core {

/// Which QoS value the predictor's output represents.
enum class QosKind { kIpc, kTailLatency, kJct };

const char* to_string(QosKind kind);

/// The five incremental learners compared in Figure 9.
enum class ModelKind { kIRFR, kIKNN, kILR, kISVR, kIMLP };

const char* to_string(ModelKind kind);

/// The IRFR configuration Gsight deploys (80 extra-trees with random
/// thresholds over the wide overlap-coded feature space). Single source
/// of truth shared by make_model and the online serving stack, so the
/// model served by `gsight serve-bench` is the model the experiments
/// evaluate.
ml::IncrementalForestConfig deployed_irfr_config();

std::unique_ptr<ml::IncrementalRegressor> make_model(ModelKind kind,
                                                     std::uint64_t seed = 1);

/// Common interface for everything that predicts a target workload's QoS
/// from a colocation scenario — Gsight itself and the ESP / Pythia
/// baselines it is compared against (Figure 9).
class ScenarioPredictor {
 public:
  virtual ~ScenarioPredictor() = default;
  virtual double predict(const Scenario& scenario) const = 0;
  /// One QoS value per scenario, bit-identical to calling predict() on
  /// each. The default is that loop; Gsight overrides it to encode the
  /// whole batch and issue one tree-major forest traversal, which is how
  /// the scheduler's SLA sweep turns N model calls into one.
  virtual std::vector<double> predict_batch(
      std::span<const Scenario> scenarios) const;
  virtual void observe(const Scenario& scenario, double actual_qos) = 0;
  virtual void flush() = 0;
  virtual std::string name() const = 0;
};

struct PredictorConfig {
  EncoderConfig encoder;
  ModelKind model = ModelKind::kIRFR;
  QosKind qos = QosKind::kIpc;
  /// Observations are buffered and folded into the model once this many
  /// have accumulated (amortises incremental updates).
  std::size_t update_batch = 32;
  std::uint64_t seed = 1;
};

/// Model refreshes run in the background. flush() (and observe() once
/// `update_batch` observations are buffered) hands the buffered batch to
/// one partial_fit task on ml::ThreadPool::shared() and returns at once,
/// so the caller's next stretch of work overlaps the refresh. Every later access to the model
/// first waits for that refresh: predict, predict_batch, train, the next
/// flush, model() and samples_seen(). Refreshes therefore apply one at a
/// time and in flush order, and the model's RNG draws keep their order,
/// so every prediction is bit-identical to a synchronous refresh. An
/// exception thrown by a refresh is rethrown once, by the next access;
/// the predictor stays usable after it. The destructor waits for a
/// refresh in flight and drops its exception.
class GsightPredictor final : public ScenarioPredictor {
 public:
  explicit GsightPredictor(PredictorConfig config = {});
  /// Take ownership of a custom model (e.g. specially configured IRFR).
  GsightPredictor(PredictorConfig config,
                  std::unique_ptr<ml::IncrementalRegressor> model);
  ~GsightPredictor() override;
  /// A moved predictor takes its refresh in flight along: the task holds
  /// the heap-allocated model, not the predictor. Assignment is deleted
  /// because it would free the old model under that model's refresh.
  GsightPredictor(GsightPredictor&&) = default;
  GsightPredictor& operator=(GsightPredictor&&) = delete;

  /// Predict the target workload's QoS under the scenario.
  double predict(const Scenario& scenario) const override;
  /// Batched predict: encode every scenario, then one batched model call.
  std::vector<double> predict_batch(
      std::span<const Scenario> scenarios) const override;

  /// Record an observed (scenario, actual QoS) pair; the model updates
  /// once `update_batch` observations accumulate (or on flush()).
  void observe(const Scenario& scenario, double actual_qos) override;
  /// Wait for the refresh in flight, then start folding any buffered
  /// observations into the model in the background.
  void flush() override;
  std::string name() const override {
    return std::string("Gsight-") + to_string(config_.model);
  }

  /// Bulk offline training (initial dataset of Figure 6 step 3).
  void train(const ml::Dataset& dataset);

  const Encoder& encoder() const { return encoder_; }
  const ml::IncrementalRegressor& model() const {
    await_refresh();
    return *model_;
  }
  std::size_t samples_seen() const {
    await_refresh();
    return model_->samples_seen();
  }
  const PredictorConfig& config() const { return config_; }

 private:
  /// One background partial_fit (defined in predictor.cpp).
  class Refresh;

  /// Block until the refresh in flight, if any, has finished; rethrow its
  /// exception.
  void await_refresh() const;

  PredictorConfig config_;
  Encoder encoder_;
  std::unique_ptr<ml::IncrementalRegressor> model_;
  ml::Dataset pending_;
  /// The background refresh; set from a flush() until the next access to
  /// the model collects it. mutable because const reads wait on it.
  mutable std::shared_ptr<Refresh> refresh_;
  /// predict_batch scratch: scenario codes are written straight into
  /// rows of this reused Matrix (zero-copy encode). mutable because
  /// batched prediction is logically const; a predictor instance is not
  /// safe for concurrent use — the serving stack (serve::) hands each
  /// worker its own snapshot instead of sharing one predictor.
  mutable ml::Matrix batch_xs_;
  mutable EncodeScratch encode_scratch_;
};

}  // namespace gsight::core
