#include "moe/gate_trace.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/canonical.h"

namespace mixnet::moe {

namespace {

GateSnapshot snapshot(const GateSimulator& gate, int layers) {
  GateSnapshot s;
  s.counts.reserve(static_cast<std::size_t>(layers));
  s.loads.reserve(static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    s.counts.push_back(gate.dispatch_counts(l));
    s.loads.push_back(gate.expert_load(l));
  }
  return s;
}

}  // namespace

GateTrace::GateTrace(const GateConfig& cfg, int warmup_iterations,
                     WarmupPolicy policy, int layers, int horizon)
    : cfg_(cfg),
      layers_(layers),
      horizon_(std::max(horizon, 0)) {
  if (layers < 1 || layers > cfg_.n_layers)
    throw std::invalid_argument("GateTrace: layers read " + std::to_string(layers) +
                                " outside [1, " + std::to_string(cfg_.n_layers) +
                                "]");
  // The producer computes only the recorded layers after initial().
  producer_ = std::make_unique<GateSimulator>(cfg_, layers_);
  initial_ = snapshot(*producer_, cfg_.n_layers);
  if (policy == WarmupPolicy::kClosedForm)
    producer_->advance_steps(warmup_iterations);
  else
    producer_->skip(warmup_iterations);
}

const GateSnapshot& GateTrace::iteration(int i) const {
  if (i < 1 || (horizon_ > 0 && i > horizon_))
    throw std::out_of_range("GateTrace: iteration " + std::to_string(i) +
                            " outside the recorded horizon [1, " +
                            (horizon_ > 0 ? std::to_string(horizon_) : "inf") + "]");
  const std::lock_guard<std::mutex> lock(mu_);
  while (iterations_.size() < static_cast<std::size_t>(i)) {
    producer_->step();
    iterations_.push_back(snapshot(*producer_, layers_));
    if (static_cast<int>(iterations_.size()) == horizon_) producer_.reset();
  }
  return iterations_[static_cast<std::size_t>(i - 1)];
}

std::string gate_trace_key(const GateConfig& gc, int warmup_iterations,
                           WarmupPolicy policy, int layers, int horizon) {
  // Every GateConfig field is key material (tools/lint/gate_trace_key.json
  // enforces it), so two different trajectories never share a trace.
  CanonicalWriter w;
  w.field("n_experts", gc.n_experts);
  w.field("n_layers", gc.n_layers);
  w.field("ep_ranks", gc.ep_ranks);
  w.field("tokens_per_rank", gc.tokens_per_rank);
  w.field("transition_alpha", gc.transition_alpha);
  w.field("personalization", gc.personalization);
  w.field("drift_sigma", gc.drift_sigma);
  w.field("pref_drift_sigma", gc.pref_drift_sigma);
  w.field("pref_retention", gc.pref_retention);
  w.field("lb_final", gc.lb_final);
  w.field("lb_timescale", gc.lb_timescale);
  w.field("seed", gc.seed);
  w.field("warmup_iterations", warmup_iterations);
  w.field("warmup_policy", static_cast<int>(policy));
  w.field("layers", layers);
  w.field("horizon", std::max(horizon, 0));
  return w.digest_hex();
}

std::shared_ptr<const GateTrace> GateTraceMemo::get(const GateConfig& cfg,
                                                    int warmup_iterations,
                                                    WarmupPolicy policy,
                                                    int layers, int horizon) {
  const std::string key =
      gate_trace_key(cfg, warmup_iterations, policy, layers, horizon);
  std::promise<TracePtr> promise;
  std::shared_future<TracePtr> trace;
  bool produce = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = traces_.find(key);
    if (it == traces_.end()) {
      it = traces_.emplace(key, promise.get_future().share()).first;
      produce = true;
    }
    trace = it->second;
  }
  if (!produce) {
    TracePtr t = trace.get();  // waits; rethrows a failed production
    ++shared_;
    return t;
  }
  // Produce outside the map lock so distinct keys build in parallel.
  try {
    TracePtr t = std::make_shared<const GateTrace>(cfg, warmup_iterations,
                                                   policy, layers, horizon);
    promise.set_value(t);
    ++built_;
    return t;
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      traces_.erase(key);  // never cache a failure: a later request retries
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

}  // namespace mixnet::moe
