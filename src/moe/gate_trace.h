// GateTrace: one recorded gate trajectory, shared by every sweep point that
// replays it (DESIGN.md §6, §9).
//
// Fabric, bandwidth and control-plane settings never feed the gate, so under
// a shared seed every point of a model's sweep reads the same sequence of
// dispatch counts and expert loads. A GateTrace records that sequence once
// from one owned GateSimulator; consumers read snapshots, which hold exactly
// the values the live simulator would have returned at the same point of
// its trajectory (bit-identical by construction). GateTraceMemo hands out
// one trace per content key so concurrent sweep workers share it.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "moe/gate.h"

namespace mixnet::moe {

/// The routing state of one gate iteration: per layer, the realized dispatch
/// counts (rank x expert token slots) and the normalized expert load.
struct GateSnapshot {
  std::vector<Matrix> counts;
  std::vector<std::vector<double>> loads;
};

class GateTrace {
 public:
  /// Construct the producer as GateSimulator(cfg, layers) (which throws
  /// std::invalid_argument on a config or layer count it rejects),
  /// snapshot every layer as initial(), then advance `warmup_iterations`
  /// under `policy`. iteration(i) snapshots layers [0, layers), the only
  /// layers the producer holds after warmup; the trace is open-ended and
  /// extends on demand.
  GateTrace(const GateConfig& cfg, int warmup_iterations, WarmupPolicy policy,
            int layers);

  /// Every layer's state right after construction, before warmup.
  const GateSnapshot& initial() const { return initial_; }

  /// Layers [0, layers()) after warmup and `i` step() calls, i >= 1.
  /// Produced on first request (thread-safe; the reference stays valid for
  /// the trace's lifetime). Throws std::out_of_range for i < 1.
  const GateSnapshot& iteration(int i) const;

 private:
  int layers_;
  mutable GateSimulator producer_;
  GateSnapshot initial_;
  mutable std::mutex mu_;
  mutable std::deque<GateSnapshot> iterations_;  // stable references
};

/// Content key of a trace: a CanonicalWriter digest of every GateConfig
/// field plus the warmup and the layers read.
std::string gate_trace_key(const GateConfig& gc, int warmup_iterations,
                           WarmupPolicy policy, int layers);

/// Compute-once map from gate_trace_key to a shared trace. A key is produced
/// once; concurrent requesters of it wait, distinct keys produce in
/// parallel. A throwing production reaches every requester waiting on it
/// and is not cached.
class GateTraceMemo {
 public:
  struct Stats {
    std::size_t built = 0;   ///< traces produced
    std::size_t shared = 0;  ///< requests served by an existing trace
  };

  std::shared_ptr<const GateTrace> get(const GateConfig& cfg,
                                       int warmup_iterations,
                                       WarmupPolicy policy, int layers);
  Stats stats() const { return {built_.load(), shared_.load()}; }

 private:
  using TracePtr = std::shared_ptr<const GateTrace>;
  std::mutex mu_;
  std::map<std::string, std::shared_future<TracePtr>> traces_;
  std::atomic<std::size_t> built_{0};
  std::atomic<std::size_t> shared_{0};
};

}  // namespace mixnet::moe
