#include "core/predictor.hpp"

#include <atomic>
#include <exception>
#include <future>
#include <stdexcept>
#include <utility>

#include "ml/thread_pool.hpp"

namespace gsight::core {

const char* to_string(QosKind kind) {
  switch (kind) {
    case QosKind::kIpc: return "IPC";
    case QosKind::kTailLatency: return "tail-latency";
    case QosKind::kJct: return "JCT";
  }
  return "?";
}

const char* to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kIRFR: return "IRFR";
    case ModelKind::kIKNN: return "IKNN";
    case ModelKind::kILR: return "ILR";
    case ModelKind::kISVR: return "ISVR";
    case ModelKind::kIMLP: return "IMLP";
  }
  return "?";
}

std::vector<double> ScenarioPredictor::predict_batch(
    std::span<const Scenario> scenarios) const {
  std::vector<double> out;
  out.reserve(scenarios.size());
  for (const auto& s : scenarios) out.push_back(predict(s));
  return out;
}

ml::IncrementalForestConfig deployed_irfr_config() {
  ml::IncrementalForestConfig cfg;
  cfg.forest.n_trees = 80;
  // The overlap-coded feature space is wide (hundreds to thousands of
  // dims); Extra-Trees-style random thresholds keep fitting cheap with
  // no measurable accuracy loss at this dimensionality. The feature
  // subsample per split is raised above sqrt(d) because informative
  // dimensions (occupied server rows) are a small fraction of the code.
  cfg.forest.tree.split_mode = ml::SplitMode::kRandom;
  cfg.forest.tree.max_depth = 22;
  cfg.forest.tree.min_samples_leaf = 2;
  cfg.forest.tree.max_features = 128;
  return cfg;
}

std::unique_ptr<ml::IncrementalRegressor> make_model(ModelKind kind,
                                                     std::uint64_t seed) {
  switch (kind) {
    case ModelKind::kIRFR:
      return std::make_unique<ml::IncrementalForest>(
          deployed_irfr_config(), seed);
    case ModelKind::kIKNN:
      return std::make_unique<ml::IncrementalKnn>(ml::KnnConfig{}, seed);
    case ModelKind::kILR:
      return std::make_unique<ml::IncrementalLinear>(ml::LinearConfig{}, seed);
    case ModelKind::kISVR:
      return std::make_unique<ml::IncrementalSvr>(ml::SvrConfig{}, seed);
    case ModelKind::kIMLP:
      return std::make_unique<ml::IncrementalMlp>(ml::MlpConfig{}, seed);
  }
  throw std::invalid_argument("unknown model kind");
}

GsightPredictor::GsightPredictor(PredictorConfig config)
    : GsightPredictor(config, make_model(config.model, config.seed)) {}

GsightPredictor::GsightPredictor(PredictorConfig config,
                                 std::unique_ptr<ml::IncrementalRegressor> model)
    : config_(config),
      encoder_(config.encoder),
      model_(std::move(model)),
      pending_(encoder_.dimension()),
      batch_xs_(0, encoder_.dimension()) {}

/// One partial_fit of one batch, queued on ThreadPool::shared(). run()
/// trains exactly once, on whichever thread claims it first: a pool
/// worker, or the thread that waits for the result. So a refresh queued
/// behind busy workers never blocks its waiter, and a queued task that
/// runs after the waiter claimed it touches nothing but the claim flag.
class GsightPredictor::Refresh {
 public:
  Refresh(ml::IncrementalRegressor* model, ml::Dataset batch)
      : model_(model), batch_(std::move(batch)), done_(result_.get_future()) {}

  void run() {
    if (claimed_.exchange(true, std::memory_order_acq_rel)) return;
    try {
      model_->partial_fit(batch_);
      result_.set_value();
    } catch (...) {
      result_.set_exception(std::current_exception());
    }
  }

  /// Run it here unless a worker has claimed it, then wait for it.
  /// get() rethrows the refresh's exception; wait() never throws.
  void finish() {
    run();
    done_.get();
  }
  void finish_quietly() {
    run();
    done_.wait();
  }

 private:
  std::atomic<bool> claimed_{false};
  ml::IncrementalRegressor* model_;
  ml::Dataset batch_;
  std::promise<void> result_;
  std::future<void> done_;
};

GsightPredictor::~GsightPredictor() {
  // An exception nobody collected dies with the predictor.
  if (refresh_) refresh_->finish_quietly();
}

void GsightPredictor::await_refresh() const {
  if (!refresh_) return;
  // Taken out first, so a rethrown exception surfaces once and the next
  // access proceeds.
  const std::shared_ptr<Refresh> refresh = std::move(refresh_);
  refresh->finish();
}

double GsightPredictor::predict(const Scenario& scenario) const {
  await_refresh();
  return model_->predict(encoder_.encode(scenario));
}

std::vector<double> GsightPredictor::predict_batch(
    std::span<const Scenario> scenarios) const {
  await_refresh();
  // Zero-copy encode: each scenario's code is written directly into a
  // row of the reused scratch Matrix, so a steady-state batch performs
  // no per-call allocation beyond the returned vector.
  batch_xs_.clear_rows();
  batch_xs_.reserve_rows(scenarios.size());
  for (const auto& s : scenarios) {
    encoder_.encode_into(s, encode_scratch_, batch_xs_.append_row());
  }
  std::vector<double> out;
  model_->predict_batch(batch_xs_, out);
  return out;
}

void GsightPredictor::observe(const Scenario& scenario, double actual_qos) {
  pending_.add(encoder_.encode(scenario), actual_qos);
  if (pending_.size() >= config_.update_batch) flush();
}

void GsightPredictor::flush() {
  await_refresh();
  if (pending_.empty()) return;
  // The refresh owns its batch and reaches the model through a pointer
  // that outlives the training (the destructor waits), so observe() can
  // refill pending_ meanwhile. On a pool worker, the refresh's own
  // parallel_for takes that worker plus the idle ones and leaves the
  // caller's core to the caller. refresh_ is set before the submit, so
  // should the pool refuse the task, the next access runs it instead.
  refresh_ = std::make_shared<Refresh>(model_.get(), std::move(pending_));
  pending_ = ml::Dataset(encoder_.dimension());
  ml::ThreadPool::shared().submit([refresh = refresh_] { refresh->run(); });
}

void GsightPredictor::train(const ml::Dataset& dataset) {
  if (dataset.feature_count() != encoder_.dimension()) {
    throw std::invalid_argument(
        "GsightPredictor::train: dataset dimension mismatch");
  }
  await_refresh();
  model_->partial_fit(dataset);
}

}  // namespace gsight::core
