// Forwarding decorators that time the ml and sched layers from outside.
// Each wraps the real object, forwards every call unchanged, and records a
// span around it (when the run is traced). The predictor decorator also
// keeps the prequential error of the online loop: every observation is
// predicted before the model learns it.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "harness.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

class MeasuredPredictor final : public gsight::core::ScenarioPredictor {
 public:
  MeasuredPredictor(gsight::core::ScenarioPredictor& inner, Spans& spans)
      : inner_(inner), spans_(&spans) {}

  double predict(const gsight::core::Scenario& scenario) const override {
    const Scope scope(*spans_, "ml.predict");
    ++predict_calls_;
    ++predict_rows_;
    return inner_.predict(scenario);
  }

  std::vector<double> predict_batch(
      std::span<const gsight::core::Scenario> scenarios) const override {
    const Scope scope(*spans_, "ml.predict_batch");
    ++predict_calls_;
    predict_rows_ += scenarios.size();
    return inner_.predict_batch(scenarios);
  }

  void observe(const gsight::core::Scenario& scenario,
               double actual_qos) override {
    {
      const Scope scope(*spans_, "ml.prequential");
      const double predicted = inner_.predict(scenario);
      if (actual_qos != 0.0) {
        ape_sum_ += std::abs(predicted - actual_qos) / std::abs(actual_qos);
        ++ape_count_;
      }
    }
    const Scope scope(*spans_, "ml.observe");
    inner_.observe(scenario, actual_qos);
  }

  void flush() override {
    {
      const Scope scope(*spans_, "ml.flush");
      inner_.flush();
    }
    flush_done_ns_.push_back(now_ns());
  }

  std::string name() const override { return inner_.name(); }

  /// Mean absolute percentage error of predict-then-learn, as a fraction.
  double online_mape() const {
    return ape_count_ > 0 ? ape_sum_ / static_cast<double>(ape_count_) : 0.0;
  }
  std::size_t predict_calls() const { return predict_calls_; }
  std::size_t predict_rows() const { return predict_rows_; }
  /// Host time at which each flush returned (one per online round).
  const std::vector<std::uint64_t>& flush_done_ns() const {
    return flush_done_ns_;
  }

 private:
  gsight::core::ScenarioPredictor& inner_;
  Spans* spans_;
  mutable std::size_t predict_calls_ = 0;
  mutable std::size_t predict_rows_ = 0;
  double ape_sum_ = 0.0;
  std::size_t ape_count_ = 0;
  std::vector<std::uint64_t> flush_done_ns_;
};

class MeasuredScheduler final : public gsight::sched::Scheduler {
 public:
  MeasuredScheduler(gsight::sched::Scheduler& inner, Spans& spans)
      : inner_(inner), spans_(spans) {}

  std::vector<std::size_t> place_workload(
      const gsight::prof::AppProfile& profile,
      const gsight::sched::DeploymentState& state,
      const gsight::core::Sla& sla) override {
    const Scope scope(spans_, "sched.place_workload");
    ++decisions_;
    return inner_.place_workload(profile, state, sla);
  }

  std::size_t place_replica(std::size_t w, std::size_t fn,
                            const gsight::sched::DeploymentState& state) override {
    const Scope scope(spans_, "sched.place_replica");
    ++decisions_;
    return inner_.place_replica(w, fn, state);
  }

  std::string name() const override { return inner_.name(); }

  std::size_t decisions() const { return decisions_; }

 private:
  gsight::sched::Scheduler& inner_;
  Spans& spans_;
  std::size_t decisions_ = 0;
};

}  // namespace perfbench
