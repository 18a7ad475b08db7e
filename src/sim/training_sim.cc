#include "sim/training_sim.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "dag/taskgraph.h"
#include "moe/traffic.h"
#include "ocs/algorithm.h"

namespace mixnet::sim {

Matrix rescale_plan_columns(Matrix seen, const std::vector<double>& predicted,
                            const std::vector<int>& rank_to_local_server,
                            const std::vector<int>& expert_to_rank) {
  // Total captured once, before any column is touched: normalizing against a
  // running seen.sum() would make each column's scale depend on the columns
  // rescaled before it (order-dependent and self-referential).
  const double total = seen.sum();
  if (total <= 0.0) return seen;
  std::vector<double> pred_col(seen.cols(), 0.0);
  for (std::size_t e = 0; e < expert_to_rank.size(); ++e) {
    const auto rank = static_cast<std::size_t>(expert_to_rank[e]);
    pred_col[static_cast<std::size_t>(rank_to_local_server[rank])] += predicted[e];
  }
  for (std::size_t c = 0; c < seen.cols(); ++c) {
    const double seen_col = seen.col_sum(c);  // only column c is mutated below
    if (seen_col > 0.0 && pred_col[c] > 0.0) {
      const double scale = pred_col[c] * total / seen_col;
      for (std::size_t r = 0; r < seen.rows(); ++r) seen(r, c) *= scale;
    }
  }
  return seen;
}

Cluster build_cluster(TrainingConfig cfg) {
  if (!cfg.par_overridden) cfg.par = moe::default_parallelism(cfg.model);
  auto placement = std::make_unique<moe::Placement>(cfg.par, cfg.gpus_per_server);
  // A zero micro-batch size or count would run every phase and report an
  // iteration with no tokens instead of failing.
  const auto require_positive = [](const char* field, int value) {
    if (value < 1)
      throw std::invalid_argument(std::string("build_cluster: ") + field +
                                  " must be >= 1, got " + std::to_string(value));
  };
  require_positive("par.micro_batch", cfg.par.micro_batch);
  require_positive("par.n_microbatches", cfg.par.n_microbatches);
  // A negative warmup would run none, yet key its own trace and cache record.
  if (cfg.warmup_iterations < 0)
    throw std::invalid_argument("build_cluster: warmup_iterations must be >= 0, got " +
                                std::to_string(cfg.warmup_iterations));
  const bool mixnet = cfg.fabric_kind == topo::FabricKind::kMixNet ||
                      cfg.fabric_kind == topo::FabricKind::kMixNetOpticalIO;
  topo::FabricConfig fc =
      topo::FabricConfig::preset(cfg.fabric_kind, placement->total_servers())
          .with_gpus_per_server(cfg.gpus_per_server)
          .with_nics_per_server(cfg.nics_per_server)
          .with_nic_gbps(cfg.nic_gbps)
          .with_oversub(cfg.oversub)
          .with_eps_split(cfg.eps_nics, cfg.optical_degree)
          .with_region_servers(placement->region_servers())
          .with_nvlink_gbps_per_gpu(cfg.nvlink_gbps_per_gpu)
          .with_ocs_nic_gbps(cfg.ocs_nic_gbps)
          .with_core_model(cfg.core_model);
  if (mixnet) {
    fc.with_eps_split(cfg.eps_nics, cfg.nics_per_server - cfg.eps_nics);
    cfg.optical_degree = fc.optical_degree;
  }
  // TopoOpt keeps its single global region (set inside Fabric::build).
  Cluster c;
  c.fabric = std::make_unique<topo::Fabric>(topo::Fabric::build(fc));

  collective::EngineConfig ecfg;
  ecfg.a2a_efficiency = cfg.a2a_efficiency;
  ecfg.ring_efficiency = cfg.ring_efficiency;
  ecfg.switched_path_efficiency = cfg.switched_path_efficiency;
  c.runner = std::make_unique<PhaseRunner>(*c.fabric, ecfg, std::size_t{},
                                           cfg.backend, cfg.pkt);

  c.gate = moe::gate_config(cfg.model, cfg.par, cfg.gate);
  c.gate.seed = cfg.seed;
  c.group_servers = placement->ep_group_servers(0, 0);
  c.rank_to_local_server = placement->ep_rank_to_local_server(0, 0);
  c.expert_to_rank = moe::contiguous_expert_ranks(c.gate.n_experts, c.gate.ep_ranks);
  if (mixnet) c.region = c.fabric->region_of(c.group_servers.front());
  c.layers_per_stage = std::max(cfg.model.n_blocks / cfg.par.pp, 1);
  c.mixnet = mixnet;
  c.placement = std::move(placement);
  c.cfg = std::move(cfg);
  return c;
}

control::ControllerConfig Cluster::controller_config() const {
  control::ControllerConfig cc;
  cc.reconfig_delay = cfg.reconfig_delay;
  cc.policy = cfg.policy;
  cc.algo.work_conserving = !cfg.strict_paper_greedy;
  return cc;
}

TrainingSimulator::TrainingSimulator(TrainingConfig config,
                                     moe::GateTraceMemo* memo)
    : cluster_(build_cluster(std::move(config))) {
  const TrainingConfig& cfg = cluster_.cfg;
  topo::Fabric& fabric = *cluster_.fabric;
  // Warmup advances the gate past the planning snapshot that TopoOpt reads
  // as initial_counts (see warmup_iterations / warmup_policy); iterations
  // read only the representative stage's layers.
  const int lps = cluster_.layers_per_stage;
  trace_ = memo != nullptr
               ? memo->get(cluster_.gate, cfg.warmup_iterations, cfg.warmup_policy, lps)
               : std::make_shared<const moe::GateTrace>(
                     cluster_.gate, cfg.warmup_iterations, cfg.warmup_policy, lps);

  if (cluster_.mixnet)
    controller_ = std::make_unique<control::TopologyController>(
        fabric, cluster_.region, cluster_.controller_config());
  if (cfg.failure.kind != control::FailureScenario::Kind::kNone) {
    control::FailureManager failures(fabric);
    failures.apply(cfg.failure);
    cluster_.runner->set_relays(failures.relays());
    if (controller_) {
      // Translate global exclusions into the representative region's local
      // ones.
      const auto& excluded = failures.excluded_servers();
      const auto& members = fabric.region_servers(cluster_.region);
      std::vector<bool> local(members.size(), false);
      bool any = false;
      for (std::size_t i = 0; i < members.size(); ++i) {
        local[i] = excluded[static_cast<std::size_t>(members[i])];
        any = any || local[i];
      }
      if (any) controller_->exclude(local);
    }
    if (failures.tp_over_scale_out() && cfg.par.tp > 1) {
      // TP all-reduce of the victim's shard crosses the scale-out fabric:
      // 4 ring all-reduces per layer between the victim and backup servers.
      const int backup = (cfg.failure.server + 1) % fabric.n_servers();
      const Bytes payload = moe::tp_allreduce_bytes(cfg.model, cfg.par);
      const TimeNs one =
          cluster_.runner->all_reduce({cfg.failure.server, backup}, payload);
      tp_penalty_per_layer_ = 4 * one;
    }
  }

  if (cfg.use_copilot) {
    predict::CopilotConfig cc;
    cc.n_experts = cfg.model.n_experts;
    copilots_.assign(static_cast<std::size_t>(lps), predict::Copilot(cc));
  }

  if (cfg.fabric_kind == topo::FabricKind::kTopoOpt) install_topoopt_circuits();
}

Matrix TrainingSimulator::layer_server_matrix(const moe::GateSnapshot& gate,
                                              int layer) const {
  const Matrix rank = moe::rank_dispatch_matrix(
      gate.counts[static_cast<std::size_t>(layer)], cluster_.expert_to_rank,
      moe::slot_bytes(cluster_.cfg.model));
  return moe::aggregate_to_servers(rank, cluster_.rank_to_local_server,
                                   static_cast<int>(cluster_.group_servers.size()));
}

void TrainingSimulator::install_topoopt_circuits() {
  // One-shot topology (§7.1): a Hamiltonian ring for global connectivity
  // (TopoOpt's all-reduce rings) plus per-EP-group greedy circuits from the
  // initial demand estimate, using the remaining optical degree.
  const TrainingConfig& cfg = cluster_.cfg;
  const moe::Placement& placement = *cluster_.placement;
  const int n = cluster_.fabric->n_servers();
  const int alpha = cfg.nics_per_server;
  Matrix counts(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.0);
  if (n > 1) {
    for (int ring = 0; ring < 2; ++ring) {
      for (int i = 0; i < n; ++i) {
        const int j = (i + 1) % n;
        if (i == j) continue;
        counts(static_cast<std::size_t>(std::min(i, j)),
               static_cast<std::size_t>(std::max(i, j))) += 1.0;
        counts(static_cast<std::size_t>(std::max(i, j)),
               static_cast<std::size_t>(std::min(i, j))) += 1.0;
      }
    }
  }
  // TopoOpt dedicates a substantial share of its degree to the all-reduce
  // ring structure it co-optimizes with (multi-ring DP + PP chains); the
  // remainder serves the group's all-to-all demand.
  const int group_alpha = std::max(alpha - 4, 0);
  const int lps = cluster_.layers_per_stage;
  // Demand per group: sum the stage's layer matrices from the initial gate
  // state (dp=0 matrices reused for every replica -- statistically identical).
  // The stages read layers [0, pp * lps), clamped to the model.
  const auto initial =
      trace_->initial_counts(std::min(cfg.par.pp * lps, cfg.model.n_blocks));
  for (int dp = 0; dp < cfg.par.dp; ++dp) {
    for (int pp = 0; pp < cfg.par.pp; ++pp) {
      const auto members = placement.ep_group_servers(dp, pp);
      if (members.size() < 2) continue;
      Matrix demand(members.size(), members.size(), 0.0);
      for (int l = 0; l < lps; ++l) {
        const int layer = std::min(pp * lps + l, cfg.model.n_blocks - 1);
        const Matrix rank = moe::rank_dispatch_matrix(
            (*initial)[static_cast<std::size_t>(layer)],
            cluster_.expert_to_rank, moe::slot_bytes(cfg.model));
        const Matrix m = moe::aggregate_to_servers(
            rank, placement.ep_rank_to_local_server(dp, pp),
            static_cast<int>(members.size()));
        for (std::size_t a = 0; a < demand.rows(); ++a)
          for (std::size_t b = 0; b < demand.cols(); ++b) demand(a, b) += m(a, b);
      }
      const ocs::OcsTopology topo = ocs::reconfigure_ocs(demand, group_alpha);
      for (std::size_t a = 0; a < members.size(); ++a)
        for (std::size_t b = 0; b < members.size(); ++b)
          counts(static_cast<std::size_t>(members[a]),
                 static_cast<std::size_t>(members[b])) += topo.counts(a, b);
    }
  }
  cluster_.fabric->apply_circuits(0, counts);
}

IterationResult TrainingSimulator::run_iteration() {
  const moe::GateSnapshot& gate = trace_->iteration(trace_iteration_ + 1);
  ++trace_iteration_;
  IterationResult res;

  const TrainingConfig& cfg = cluster_.cfg;
  PhaseRunner& runner = *cluster_.runner;
  const std::vector<int>& group = cluster_.group_servers;
  const dag::LayerTimes lt =
      dag::forward_layer_times(cfg.model, cfg.par, cfg.compute);
  const double bf = cfg.compute.backward_factor;
  const int lps = cluster_.layers_per_stage;
  const int stages = cfg.par.pp;
  const int micro = cfg.par.n_microbatches;

  // --- Per-layer all-to-all phases (representative region) -----------------
  std::vector<TimeNs> a2a(static_cast<std::size_t>(lps), 0);
  std::vector<TimeNs> blocked_fp(static_cast<std::size_t>(lps), 0);
  std::vector<TimeNs> blocked_bp(static_cast<std::size_t>(lps), 0);
  const TimeNs fp_window = lt.attention + lt.gate;
  const TimeNs bp_window =
      static_cast<TimeNs>(bf * static_cast<double>(lt.attention + lt.expert));
  for (int l = 0; l < lps; ++l) {
    const Matrix demand = layer_server_matrix(gate, l);
    if (controller_) {
      // Planning demand: Copilot predicts this layer's expert loads from the
      // previous layer and scales last iteration's observed matrix columns
      // accordingly (§B.1); otherwise the oracle matrix is used (the demand
      // is known from the previous micro-batch's identical routing).
      Matrix plan = demand;
      if (cfg.use_copilot) {
        monitor_.record(cluster_.region, l, demand);
        const auto& prev_load =
            gate.loads[static_cast<std::size_t>(l == 0 ? 0 : l - 1)];
        auto& cp = copilots_[static_cast<std::size_t>(l)];
        const auto predicted = cp.predict(prev_load);
        const Matrix* seen = monitor_.smoothed(cluster_.region, l);
        if (seen != nullptr && cp.observations() > 4) {
          // Rescale destination columns toward the predicted rank loads.
          plan = rescale_plan_columns(*seen, predicted,
                                      cluster_.rank_to_local_server,
                                      cluster_.expert_to_rank);
        }
        cp.observe(prev_load, gate.loads[static_cast<std::size_t>(l)]);
      }
      auto outcome = controller_->prepare(plan, fp_window);
      blocked_fp[static_cast<std::size_t>(l)] = outcome.blocked;
      if (outcome.reconfigured) {
        ++res.reconfigurations;
        blocked_bp[static_cast<std::size_t>(l)] =
            std::max<TimeNs>(cfg.reconfig_delay - bp_window, 0);
      }
    }
    a2a[static_cast<std::size_t>(l)] = runner.ep_all_to_all(group, demand);
  }
  last_timeline_ = PhaseTimeline{lt.attention, lt.gate,     a2a[0],
                                 lt.expert,    a2a[0],      lt.add_norm,
                                 blocked_fp[0]};

  // --- PP boundary transfer -------------------------------------------------
  TimeNs pp_time = 0;
  if (stages > 1) {
    const auto next_group = cluster_.placement->ep_group_servers(0, 1);
    const Bytes act = moe::pp_activation_bytes(cfg.model, cfg.par) /
                      static_cast<double>(group.size());
    pp_time = runner.send(group.front(), next_group.front(), act);
  }

  // --- DP gradient all-reduce ----------------------------------------------
  TimeNs dp_time = 0;
  if (cfg.par.dp > 1) {
    const int spr =
        std::max(cluster_.placement->total_servers() / cfg.par.dp, 1);
    dp_time = runner.dp_all_reduce(
        spr, cfg.par.dp, moe::dp_gradient_bytes_per_gpu(cfg.model, cfg.par));
  }

  // --- Build and execute the iteration DAG ---------------------------------
  dag::TaskGraph graph;
  const TimeNs comp1 = lt.attention + lt.gate + tp_penalty_per_layer_;
  const TimeNs comp_exp = lt.expert;
  const TimeNs comp_norm = lt.add_norm;
  auto scale = [&](TimeNs t) {
    return static_cast<TimeNs>(bf * static_cast<double>(t));
  };

  // fwd_tail[s][m] / bwd_tail[s][m]: last task ids for dependency wiring.
  std::vector<std::vector<dag::TaskId>> fwd_tail(
      static_cast<std::size_t>(stages),
      std::vector<dag::TaskId>(static_cast<std::size_t>(micro), -1));
  std::vector<std::vector<dag::TaskId>> bwd_tail = fwd_tail;

  auto chain = [&](dag::TaskId& prev, dag::Task t) {
    const dag::TaskId id = graph.add(std::move(t));
    if (prev >= 0) graph.add_dep(id, prev);
    prev = id;
    return id;
  };

  for (int m = 0; m < micro; ++m) {
    for (int s = 0; s < stages; ++s) {
      dag::TaskId prev = -1;
      // PP receive dependency from the previous stage.
      if (s > 0) {
        dag::TaskId send = graph.add({"pp-send", pp_time, nullptr, -1, 0, {}});
        graph.add_dep(send, fwd_tail[static_cast<std::size_t>(s - 1)]
                                    [static_cast<std::size_t>(m)]);
        prev = send;
      }
      for (int l = 0; l < lps; ++l) {
        const auto lu = static_cast<std::size_t>(l);
        chain(prev, {"attn+gate", comp1, nullptr, s, 0, {}});
        chain(prev, {"a2a1", blocked_fp[lu] + a2a[lu], nullptr, s, 0, {}});
        chain(prev, {"expert", comp_exp, nullptr, s, 0, {}});
        chain(prev, {"a2a2", a2a[lu], nullptr, s, 0, {}});
        chain(prev, {"add&norm", comp_norm, nullptr, s, 0, {}});
      }
      fwd_tail[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] = prev;
    }
  }
  for (int m = 0; m < micro; ++m) {
    for (int s = stages - 1; s >= 0; --s) {
      dag::TaskId prev = -1;
      dag::TaskId head_dep =
          fwd_tail[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)];
      if (s < stages - 1) {
        dag::TaskId send = graph.add({"pp-send-grad", pp_time, nullptr, -1, 1, {}});
        graph.add_dep(send, bwd_tail[static_cast<std::size_t>(s + 1)]
                                    [static_cast<std::size_t>(m)]);
        prev = send;
      }
      bool first = true;
      for (int l = lps - 1; l >= 0; --l) {
        const auto lu = static_cast<std::size_t>(l);
        dag::TaskId id = chain(prev, {"bwd-norm", scale(comp_norm), nullptr, s, 1, {}});
        if (first) {
          graph.add_dep(id, head_dep);  // needs this micro-batch's forward
          first = false;
        }
        chain(prev, {"bwd-a2a2", blocked_bp[lu] + a2a[lu], nullptr, s, 1, {}});
        chain(prev, {"bwd-expert", scale(comp_exp), nullptr, s, 1, {}});
        chain(prev, {"bwd-a2a1", a2a[lu], nullptr, s, 1, {}});
        chain(prev, {"bwd-attn", scale(comp1), nullptr, s, 1, {}});
      }
      bwd_tail[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] = prev;
    }
  }
  // DP all-reduce per stage after its last backward micro-batch.
  if (dp_time > 0) {
    for (int s = 0; s < stages; ++s) {
      dag::TaskId ar = graph.add({"dp-allreduce", dp_time, nullptr, -1, 2, {}});
      graph.add_dep(ar, bwd_tail[static_cast<std::size_t>(s)]
                                [static_cast<std::size_t>(micro - 1)]);
    }
  }

  eventsim::Simulator simulator;
  dag::Executor exec(simulator, graph);
  exec.start();
  simulator.run();
  if (!exec.all_done()) {
    // A stalled DAG (dependency cycle, or a phase that never reported done)
    // would otherwise yield the makespan of whatever happened to finish.
    throw std::runtime_error(
        "TrainingSimulator: iteration DAG stalled after " +
        std::to_string(exec.tasks_done()) + " of " + std::to_string(graph.size()) +
        " tasks");
  }

  res.total = exec.makespan();
  for (int l = 0; l < lps; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    res.ep_comm += 4 * a2a[lu] * micro;
    res.reconfig_blocked += (blocked_fp[lu] + blocked_bp[lu]) * micro;
  }
  res.pp_send = pp_time;
  res.dp_comm = dp_time;
  res.compute = static_cast<TimeNs>((1.0 + bf) *
                                    static_cast<double>(comp1 + comp_exp + comp_norm) *
                                    lps * micro);
  res.tokens = cfg.par.tokens_per_microbatch() * micro * cfg.par.dp;
  return res;
}

std::vector<IterationResult> TrainingSimulator::run(int iterations) {
  std::vector<IterationResult> out;
  out.reserve(static_cast<std::size_t>(iterations));
  for (int i = 0; i < iterations; ++i) out.push_back(run_iteration());
  return out;
}

}  // namespace mixnet::sim
