// ServeSimulator: continuous-batching MoE inference serving on the MixNet
// fabric (DESIGN.md §11).
//
// Reuses the training stack end to end — the replica sim::build_cluster
// builds for training (placement, fabric, phase runner, gate config,
// representative EP group), GateSimulator for per-request expert routing
// (the moe/traffic skew model), TopologyController for OCS circuits — but
// drives it with an open-loop request trace instead of synchronous
// iterations:
//
//   1. Admit arrived requests up to the continuous-batching cap; jump to the
//      next arrival when idle.
//   2. Each engine step advances the gate, routes the step's tokens (newly
//      admitted prompts prefill, resident requests decode one token each)
//      through every MoE block of the model: scaled attention/gate/expert
//      compute from the calibrated FLOPs model, dispatch+combine all-to-all
//      from the flow simulator, expert compute dilated by the hottest EP
//      rank's load share (the straggler effect re-placement exists to fix).
//   3. A sliding-window hotspot detector (control/hotspot.h) watches
//      per-rank expert load; when it trips and re-placement is on, per-layer
//      Copilot load predictions drive bounded hot<->cold expert swaps (each
//      layer's experts are distinct parameters, so every layer owns its own
//      expert->rank map). The Copilots exist only when re-placement is on,
//      the one case that reads them. Migration pauses the engine, and the
//      next pass over the layers re-prepares the regional OCS circuits —
//      both costs land in the latency records, which is how SLO metrics see
//      reconfiguration windows.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/controller.h"
#include "control/hotspot.h"
#include "moe/gate.h"
#include "predict/copilot.h"
#include "serve/metrics.h"
#include "serve/serve_config.h"
#include "serve/workload.h"
#include "sim/training_sim.h"

namespace mixnet::serve {

class ServeSimulator {
 public:
  /// `cluster` describes the replica exactly as for training (model,
  /// parallelism, fabric, compute calibration, gate skew, seed); `scfg` the
  /// serving workload and control loop. The workload trace derives from
  /// cluster.seed, so per-point seeds give per-point traces.
  ServeSimulator(const sim::TrainingConfig& cluster, const ServeConfig& scfg);
  ~ServeSimulator();

  /// Drive the open-loop trace to completion.
  ServeReport run();

  /// Current expert->EP-rank assignment of one stage layer (contiguous until
  /// a re-placement).
  const std::vector<int>& expert_to_rank(int layer) const {
    return expert_to_rank_[static_cast<std::size_t>(layer)];
  }

 private:
  struct ActiveRequest {
    std::size_t id = 0;       ///< index into the trace / records
    bool prefilled = false;
    int emitted = 0;          ///< output tokens emitted so far
  };

  /// Per-layer EP-rank byte matrix under the current expert placement,
  /// scaled to this step's token count.
  Matrix rank_bytes(int layer, double step_tokens) const;
  /// Simulate one engine step over the stage's layers; returns its latency.
  TimeNs simulate_step(double step_tokens, ServeReport& report);
  /// Hotspot detection + Copilot-predicted per-layer expert swaps; returns
  /// the migration pause (0 when nothing moved).
  TimeNs maybe_replace(ServeReport& report);

  sim::Cluster cluster_;
  ServeConfig scfg_;
  moe::GateSimulator gate_;
  /// The representative region's controller (MixNet only).
  std::unique_ptr<control::TopologyController> controller_;
  control::HotspotDetector detector_;
  /// One per stage layer when re-placement is on, else empty.
  std::vector<predict::Copilot> copilots_;
  /// Per stage layer: expert -> EP rank (layers own distinct experts).
  std::vector<std::vector<int>> expert_to_rank_;
  /// Per stage layer: previous step's expert load (Copilot input; empty when
  /// re-placement is off).
  std::vector<std::vector<double>> last_loads_;
  int pending_reconfig_layers_ = 0;
};

}  // namespace mixnet::serve
