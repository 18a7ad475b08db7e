#include "moe/gate_trace.h"

#include <chrono>
#include <exception>
#include <stdexcept>

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
                     WarmupPolicy policy, int layers)
    : layers_(layers), producer_(cfg, layers) {
  producer_.warm_up(warmup_iterations, policy);
}

std::shared_ptr<const std::vector<Matrix>> GateTrace::initial_counts(int k) const {
  // The replay reads only the producer's construction-time cursors, never
  // the state iteration() advances, so it needs no lock of mu_.
  const std::lock_guard<std::mutex> lock(initial_mu_);
  if (k < 1 || initial_ == nullptr ||
      initial_->size() < static_cast<std::size_t>(k)) {  // k < 1 throws
    initial_ = std::make_shared<const std::vector<Matrix>>(
        producer_.initial_counts(k));
    ++initial_replays_;
  }
  return initial_;
}

std::size_t GateTrace::initial_replays() const {
  const std::lock_guard<std::mutex> lock(initial_mu_);
  return initial_replays_;
}

const GateSnapshot& GateTrace::iteration(int i) const {
  if (i < 1)
    throw std::out_of_range("GateTrace: iteration " + std::to_string(i) +
                            " is before the first (1)");
  const std::lock_guard<std::mutex> lock(mu_);
  while (iterations_.size() < static_cast<std::size_t>(i)) {
    producer_.step();
    iterations_.push_back(snapshot(producer_, layers_));
  }
  return iterations_[static_cast<std::size_t>(i - 1)];
}

std::string gate_trace_key(const GateConfig& gc, int warmup_iterations,
                           WarmupPolicy policy, int layers) {
  // Every GateConfig field is key material (tools/lint/gate_trace_key.json
  // enforces it), so two different trajectories never share a trace.
  CanonicalWriter w;
  w.field("n_experts", gc.n_experts);
  w.field("n_layers", gc.n_layers);
  w.field("ep_ranks", gc.ep_ranks);
  w.field("tokens_per_rank", gc.tokens_per_rank);
  w.field("personalization", gc.personalization);
  w.field("pref_drift_sigma", gc.pref_drift_sigma);
  w.field("pref_retention", gc.pref_retention);
  w.field("seed", gc.seed);
  w.field("warmup_iterations", warmup_iterations);
  w.field("warmup_policy", static_cast<int>(policy));
  w.field("layers", layers);
  return w.digest_hex();
}

GateTraceMemo::Stats GateTraceMemo::stats() const {
  Stats s{built_.load(), shared_.load(), 0};
  // Replays happen after production, so only finished traces have any; a
  // failed production is erased before its future is made ready.
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, trace] : traces_)
    if (trace.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
      s.initial_replays += trace.get()->initial_replays();
  return s;
}

std::shared_ptr<const GateTrace> GateTraceMemo::get(const GateConfig& cfg,
                                                    int warmup_iterations,
                                                    WarmupPolicy policy,
                                                    int layers) {
  const std::string key = gate_trace_key(cfg, warmup_iterations, policy, layers);
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
    TracePtr t =
        std::make_shared<const GateTrace>(cfg, warmup_iterations, policy, layers);
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
