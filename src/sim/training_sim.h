// TrainingSimulator: end-to-end distributed MoE training iteration simulation.
//
// The replica (resolved config, placement, fabric, phase runner, gate config,
// representative EP group) comes from sim::build_cluster, the same recipe
// serve::ServeSimulator runs on.
//
// Composition (DESIGN.md §6):
//   1. The gate trace supplies this iteration's per-layer routing: the
//      recorded dispatch counts and expert loads of one GateSimulator
//      trajectory (moe/gate_trace.h). Through a GateTraceMemo every point
//      that derives the same gate config and warmup reads one shared
//      trace; without one the simulator records a private trace.
//   2. For each MoE block of the representative pipeline stage, the regional
//      topology controller reconfigures the OCS (Algorithm 1, with the
//      Fig. 20 hide-window accounting) and the phase runner measures the
//      all-to-all duration on the live fabric (flow-level simulation).
//   3. PP sends and the DP gradient all-reduce are measured the same way.
//   4. A FlexFlow-style task DAG (compute from the calibrated FLOPs model,
//      comm from step 2/3) is executed with 1F1B pipeline semantics; the
//      makespan is the training iteration time.
//
// Reconfiguration model (§5.1/§B.2 as interpreted in DESIGN.md): each visit
// of a layer's all-to-all pair re-targets the regional OCS. The demand is
// known from the previous micro-batch (or Copilot for the first), so the
// reconfiguration overlaps the attention+gate window in FP and the larger
// backward-compute window in BP; only the remainder blocks training.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "control/controller.h"
#include "control/failures.h"
#include "control/monitor.h"
#include "dag/compute_model.h"
#include "moe/gate.h"
#include "moe/gate_trace.h"
#include "moe/models.h"
#include "moe/placement.h"
#include "predict/copilot.h"
#include "sim/phase_runner.h"
#include "topo/fabric.h"

namespace mixnet::sim {

struct TrainingConfig {
  moe::MoeModelConfig model = moe::mixtral_8x7b();
  moe::ParallelismSpec par;  ///< default: default_parallelism(model)
  bool par_overridden = false;

  topo::FabricKind fabric_kind = topo::FabricKind::kFatTree;
  /// How the electrical core is realized (DESIGN.md §13): kExplicit
  /// materializes leaf/spine switches and uplinks in the network graph;
  /// kAnalytic collapses a non-oversubscribed core into the per-NIC server
  /// uplinks (equivalent max-min allocations, orders of magnitude fewer
  /// links at 100k-GPU scale). Requires a leaf-spine electrical core and a
  /// non-packet backend.
  topo::CoreModel core_model = topo::CoreModel::kExplicit;
  double nic_gbps = 400.0;
  int nics_per_server = 8;
  int gpus_per_server = 8;
  int eps_nics = 2;
  int optical_degree = 6;
  double oversub = 3.0;
  double nvlink_gbps_per_gpu = 4800.0;
  double ocs_nic_gbps = 0.0;

  dag::ComputeModelConfig compute;
  /// Collective software goodput calibration (see EngineConfig): EP
  /// all-to-all reaches ~2% of line rate in production (Fig. 3 comm shares),
  /// bulk rings ~60%. Set both to 1.0 for a pure line-rate network model.
  double a2a_efficiency = 0.02;
  double ring_efficiency = 0.6;
  /// Packet-fabric goodput relative to a dedicated circuit (incast/queueing,
  /// htsim-calibrated; see EngineConfig::switched_path_efficiency).
  double switched_path_efficiency = 0.8;
  TimeNs reconfig_delay = ms_to_ns(25);
  /// Predictive reconfiguration (§B.1): the controller prepares each layer's
  /// circuits from MixNet-Copilot's *predicted* demand (hidden under the
  /// attention window) instead of the oracle matrix. Slightly less accurate
  /// circuits, but no dependence on the realized gate output.
  bool use_copilot = false;
  control::CircuitPolicy policy = control::CircuitPolicy::kGreedy;
  /// Strict Algorithm 1 pseudocode (break at first unservable bottleneck)
  /// instead of the work-conserving default -- ablation only.
  bool strict_paper_greedy = false;
  control::FailureScenario failure;

  moe::GateConfig gate;  ///< n_experts/layers/ranks/tokens are derived
  /// Gate iterations advanced between fabric setup and the first measured
  /// iteration. One-shot fabrics (TopoOpt) planned their circuits at setup,
  /// so this is what exposes their staleness against drifting traffic; it
  /// is a no-op for fabrics that reconfigure at runtime.
  int warmup_iterations = 100;
  /// How the warmup iterations are advanced: kClosedForm (default) samples
  /// the warmup endpoint from the exact n-step OU transition distribution
  /// (GateSimulator::advance_steps -- one draw per dimension, the figure-
  /// bench fast path); kExactSteps iterates the historical per-iteration
  /// walk (GateSimulator::skip).
  moe::WarmupPolicy warmup_policy = moe::WarmupPolicy::kClosedForm;
  std::uint64_t seed = 42;

  /// Fidelity-ladder rung every communication phase is simulated on
  /// (DESIGN.md §12): contention-free analytic bound, max-min fluid flows
  /// (the paper's model), or the MTU-level packet engine.
  net::NetBackend backend = net::NetBackend::kFlow;
  /// Packet-engine tuning; consulted only when backend == kPacket.
  pkt::PacketConfig pkt;
};

/// One simulated replica: everything TrainingSimulator and
/// serve::ServeSimulator derive from a TrainingConfig before they run.
struct Cluster {
  /// The config as resolved: parallelism from the model unless
  /// par_overridden, and on MixNet the optical degree of the NIC split.
  TrainingConfig cfg;
  std::unique_ptr<moe::Placement> placement;
  std::unique_ptr<topo::Fabric> fabric;
  std::unique_ptr<PhaseRunner> runner;
  /// cfg.gate with the model's gate dimensions and cfg.seed.
  moe::GateConfig gate;
  /// The representative EP group (dp 0, pp 0): its servers, the group-local
  /// server of each EP rank, and its OCS region (0 off MixNet).
  std::vector<int> group_servers;
  std::vector<int> rank_to_local_server;
  /// The EP rank that owns each expert: moe::contiguous_expert_ranks over
  /// the gate's experts and ranks.
  std::vector<int> expert_to_rank;
  int region = 0;
  /// MoE blocks of one pipeline stage, at least 1.
  int layers_per_stage = 1;
  /// A MixNet fabric: its regional OCS circuits are re-targeted at runtime.
  bool mixnet = false;

  /// Topology-controller settings: the config's reconfiguration delay,
  /// circuit policy and Algorithm 1 variant.
  control::ControllerConfig controller_config() const;
};

/// Build the replica `cfg` describes: the placement, the fabric preset with
/// every TrainingConfig fabric knob applied, a phase runner with the config's
/// collective efficiencies, backend and packet tuning, the gate config and
/// the representative group. On MixNet fabrics the NICs beyond `eps_nics` go
/// to the OCS. Throws std::invalid_argument for a GPU count or parallel
/// degree below 1, a micro-batch size or count below 1, an invalid fabric,
/// or an analytic core on the packet backend.
Cluster build_cluster(TrainingConfig cfg);

/// Forward timeline of one MoE block (Fig. 3 rows).
struct PhaseTimeline {
  TimeNs attention = 0;
  TimeNs gate = 0;
  TimeNs a2a1 = 0;
  TimeNs expert = 0;
  TimeNs a2a2 = 0;
  TimeNs add_norm = 0;
  TimeNs reconfig_blocked = 0;
  TimeNs total() const {
    return attention + gate + a2a1 + expert + a2a2 + add_norm + reconfig_blocked;
  }
};

struct IterationResult {
  TimeNs total = 0;             ///< iteration makespan
  TimeNs ep_comm = 0;           ///< summed EP all-to-all time (one stage)
  TimeNs pp_send = 0;           ///< one PP boundary transfer
  TimeNs dp_comm = 0;           ///< DP gradient all-reduce
  TimeNs reconfig_blocked = 0;  ///< summed unhidden reconfiguration time
  TimeNs compute = 0;           ///< summed compute (one stage, fwd+bwd)
  int reconfigurations = 0;
  double tokens = 0.0;
  double tokens_per_sec() const {
    return total > 0 ? tokens / ns_to_sec(total) : 0.0;
  }
};

/// Copilot planning-demand rescale (§B.1): scale each destination column of
/// the observed matrix `seen` so its share of the pre-rescale total matches
/// the predicted per-server expert load. `predicted` is the Copilot load
/// distribution over experts; expert e maps to destination server
/// rank_to_local_server[expert_to_rank[e]]. Column c's sum becomes
/// pred_col(c) * sum(seen); columns with zero observed or predicted load are
/// left untouched. Each column is normalized against the total captured
/// before any mutation, so the result is independent of column order.
Matrix rescale_plan_columns(Matrix seen, const std::vector<double>& predicted,
                            const std::vector<int>& rank_to_local_server,
                            const std::vector<int>& expert_to_rank);

class TrainingSimulator {
 public:
  /// Without a memo the simulator records a private gate trace (the same
  /// construction and warmup work as a live gate). With one it reads the
  /// memo's trace for its derived gate config, warmup and layers, shared
  /// by every point of that trajectory whatever its iteration count.
  explicit TrainingSimulator(TrainingConfig cfg,
                             moe::GateTraceMemo* memo = nullptr);

  /// Read the next gate iteration and simulate one training iteration.
  IterationResult run_iteration();

  /// Run several iterations; returns per-iteration results.
  std::vector<IterationResult> run(int iterations);

  /// Fig. 3 timeline of the first MoE block under the current gate state.
  const PhaseTimeline& layer_timeline() const { return last_timeline_; }

  topo::Fabric& fabric() { return *cluster_.fabric; }
  const moe::Placement& placement() const { return *cluster_.placement; }
  const TrainingConfig& config() const { return cluster_.cfg; }
  /// Packet hop arrivals the packet engine processed so far (PhaseRunner).
  std::uint64_t pkt_arrivals() const { return cluster_.runner->pkt_arrivals(); }
  /// Smoothed demand that Copilot planning rescales; it records only on a
  /// MixNet fabric with use_copilot set, its one reader.
  const control::TrafficMonitor& monitor() const { return monitor_; }

 private:
  void install_topoopt_circuits();
  Matrix layer_server_matrix(const moe::GateSnapshot& gate, int layer) const;

  Cluster cluster_;
  std::shared_ptr<const moe::GateTrace> trace_;
  int trace_iteration_ = 0;  // last trace iteration read
  control::TrafficMonitor monitor_;
  /// The representative region's controller (MixNet only): iterations
  /// prepare no other region.
  std::unique_ptr<control::TopologyController> controller_;
  std::vector<predict::Copilot> copilots_;  // per stage layer (use_copilot)
  TimeNs tp_penalty_per_layer_ = 0;
  PhaseTimeline last_timeline_;
};

}  // namespace mixnet::sim
