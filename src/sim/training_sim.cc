#include "sim/training_sim.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "dag/taskgraph.h"
#include "moe/traffic.h"
#include "ocs/algorithm.h"

namespace mixnet::sim {

namespace {
constexpr double kBf16 = 2.0;
}

Matrix rescale_plan_columns(Matrix seen, const std::vector<double>& predicted,
                            const std::vector<int>& rank_to_local_server,
                            int experts_per_rank) {
  // Total captured once, before any column is touched: normalizing against a
  // running seen.sum() would make each column's scale depend on the columns
  // rescaled before it (order-dependent and self-referential).
  const double total = seen.sum();
  if (total <= 0.0) return seen;
  const int n_experts = static_cast<int>(predicted.size());
  const int ep_ranks = static_cast<int>(rank_to_local_server.size());
  for (std::size_t c = 0; c < seen.cols(); ++c) {
    double pred_col = 0.0;
    const double seen_col = seen.col_sum(c);  // only column c is mutated below
    for (int r = 0; r < ep_ranks; ++r) {
      if (static_cast<std::size_t>(
              rank_to_local_server[static_cast<std::size_t>(r)]) != c)
        continue;
      for (int e = r * experts_per_rank;
           e < (r + 1) * experts_per_rank && e < n_experts; ++e)
        pred_col += predicted[static_cast<std::size_t>(e)];
    }
    if (seen_col > 0.0 && pred_col > 0.0) {
      const double scale = pred_col * total / seen_col;
      for (std::size_t r = 0; r < seen.rows(); ++r) seen(r, c) *= scale;
    }
  }
  return seen;
}

Cluster build_cluster(TrainingConfig& cfg, const moe::Placement& placement) {
  topo::FabricConfig fc =
      topo::FabricConfig::preset(cfg.fabric_kind, placement.total_servers())
          .with_gpus_per_server(cfg.gpus_per_server)
          .with_nics_per_server(cfg.nics_per_server)
          .with_nic_gbps(cfg.nic_gbps)
          .with_oversub(cfg.oversub)
          .with_eps_split(cfg.eps_nics, cfg.optical_degree)
          .with_region_servers(placement.region_servers())
          .with_nvlink_gbps_per_gpu(cfg.nvlink_gbps_per_gpu)
          .with_ocs_nic_gbps(cfg.ocs_nic_gbps)
          .with_core_model(cfg.core_model);
  if (cfg.fabric_kind == topo::FabricKind::kMixNet ||
      cfg.fabric_kind == topo::FabricKind::kMixNetOpticalIO) {
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
  return c;
}

bool TrainingSimulator::is_mixnet() const {
  return cfg_.fabric_kind == topo::FabricKind::kMixNet ||
         cfg_.fabric_kind == topo::FabricKind::kMixNetOpticalIO;
}

TrainingSimulator::TrainingSimulator(TrainingConfig cfg, moe::GateTraceMemo* memo,
                                     int horizon)
    : cfg_(std::move(cfg)) {
  if (!cfg_.par_overridden) cfg_.par = moe::default_parallelism(cfg_.model);
  placement_ = std::make_unique<moe::Placement>(cfg_.par, cfg_.gpus_per_server);

  Cluster built = build_cluster(cfg_, *placement_);
  fabric_ = std::move(built.fabric);
  runner_ = std::move(built.runner);

  moe::GateConfig gc = cfg_.gate;
  gc.n_experts = cfg_.model.n_experts;
  gc.n_layers = cfg_.model.n_blocks;
  gc.ep_ranks = cfg_.par.ep;
  gc.tokens_per_rank =
      cfg_.par.tokens_per_microbatch() * cfg_.model.top_k / cfg_.par.ep;
  gc.seed = cfg_.seed;
  // Warmup advances the gate past the planning snapshot that TopoOpt reads
  // as initial() (see warmup_iterations / warmup_policy); iterations read
  // only the representative stage's layers.
  const int lps = std::max(cfg_.model.n_blocks / cfg_.par.pp, 1);
  trace_ = memo != nullptr
               ? memo->get(gc, cfg_.warmup_iterations, cfg_.warmup_policy, lps,
                           horizon)
               : std::make_shared<const moe::GateTrace>(
                     gc, cfg_.warmup_iterations, cfg_.warmup_policy, lps);

  group_servers_ = placement_->ep_group_servers(0, 0);
  rank_to_local_server_ = placement_->ep_rank_to_local_server(0, 0);
  if (is_mixnet()) rep_region_ = fabric_->region_of(group_servers_.front());

  failures_ = std::make_unique<control::FailureManager>(*fabric_);
  if (cfg_.failure.kind != control::FailureScenario::Kind::kNone) {
    failures_->apply(cfg_.failure);
    runner_->set_relays(failures_->relays());
    if (is_mixnet()) {
      // Translate global exclusions into region-local ones.
      const auto& excluded = failures_->excluded_servers();
      const int region = fabric_->region_of(cfg_.failure.server);
      const auto& members = fabric_->region_servers(region);
      std::vector<bool> local(members.size(), false);
      bool any = false;
      for (std::size_t i = 0; i < members.size(); ++i) {
        local[i] = excluded[static_cast<std::size_t>(members[i])];
        any = any || local[i];
      }
      if (any) controller_for(region).exclude(local);
    }
    if (failures_->tp_over_scale_out() && cfg_.par.tp > 1) {
      // TP all-reduce of the victim's shard crosses the scale-out fabric:
      // 4 ring all-reduces per layer between the victim and backup servers.
      const int backup = (cfg_.failure.server + 1) % fabric_->n_servers();
      const Bytes payload = moe::tp_allreduce_bytes(cfg_.model, cfg_.par);
      const TimeNs one = runner_->all_reduce({cfg_.failure.server, backup}, payload);
      tp_penalty_per_layer_ = 4 * one;
    }
  }

  if (cfg_.use_copilot) {
    predict::CopilotConfig cc;
    cc.n_experts = cfg_.model.n_experts;
    for (int l = 0; l < lps; ++l) copilots_.emplace_back(cc);
    last_loads_.assign(static_cast<std::size_t>(lps + 1), {});
  }

  if (cfg_.fabric_kind == topo::FabricKind::kTopoOpt) install_topoopt_circuits();
}

control::TopologyController& TrainingSimulator::controller_for(int region) {
  auto it = controllers_.find(region);
  if (it == controllers_.end()) {
    control::ControllerConfig cc;
    cc.reconfig_delay = cfg_.reconfig_delay;
    cc.policy = cfg_.policy;
    cc.algo.work_conserving = !cfg_.strict_paper_greedy;
    it = controllers_
             .emplace(region, std::make_unique<control::TopologyController>(
                                  *fabric_, region, cc))
             .first;
  }
  return *it->second;
}

Matrix TrainingSimulator::layer_server_matrix(const moe::GateSnapshot& gate,
                                              int layer) const {
  const Matrix rank =
      trace_->rank_dispatch_matrix(gate, layer, cfg_.model.hidden_dim * kBf16);
  return moe::aggregate_to_servers(rank, rank_to_local_server_,
                                   static_cast<int>(group_servers_.size()));
}

void TrainingSimulator::install_topoopt_circuits() {
  // One-shot topology (§7.1): a Hamiltonian ring for global connectivity
  // (TopoOpt's all-reduce rings) plus per-EP-group greedy circuits from the
  // initial demand estimate, using the remaining optical degree.
  const int n = fabric_->n_servers();
  const int alpha = cfg_.nics_per_server;
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
  const int lps = std::max(cfg_.model.n_blocks / cfg_.par.pp, 1);
  // Demand per group: sum the stage's layer matrices from the initial gate
  // state (dp=0 matrices reused for every replica -- statistically identical).
  const moe::GateSnapshot& initial = trace_->initial();
  for (int dp = 0; dp < cfg_.par.dp; ++dp) {
    for (int pp = 0; pp < cfg_.par.pp; ++pp) {
      const auto members = placement_->ep_group_servers(dp, pp);
      if (members.size() < 2) continue;
      Matrix demand(members.size(), members.size(), 0.0);
      for (int l = 0; l < lps; ++l) {
        const int layer = std::min(pp * lps + l, cfg_.model.n_blocks - 1);
        const Matrix rank = trace_->rank_dispatch_matrix(
            initial, layer, cfg_.model.hidden_dim * kBf16);
        const Matrix m = moe::aggregate_to_servers(
            rank, placement_->ep_rank_to_local_server(dp, pp),
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
  fabric_->apply_circuits(0, counts);
}

IterationResult TrainingSimulator::run_iteration() {
  const moe::GateSnapshot& gate = trace_->iteration(trace_iteration_ + 1);
  ++trace_iteration_;
  IterationResult res;

  const dag::LayerTimes lt =
      dag::forward_layer_times(cfg_.model, cfg_.par, cfg_.compute);
  const double bf = cfg_.compute.backward_factor;
  const int lps = std::max(cfg_.model.n_blocks / cfg_.par.pp, 1);
  const int stages = cfg_.par.pp;
  const int micro = cfg_.par.n_microbatches;

  // --- Per-layer all-to-all phases (representative region) -----------------
  std::vector<TimeNs> a2a(static_cast<std::size_t>(lps), 0);
  std::vector<TimeNs> blocked_fp(static_cast<std::size_t>(lps), 0);
  std::vector<TimeNs> blocked_bp(static_cast<std::size_t>(lps), 0);
  const TimeNs fp_window = lt.attention + lt.gate;
  const TimeNs bp_window =
      static_cast<TimeNs>(bf * static_cast<double>(lt.attention + lt.expert));
  for (int l = 0; l < lps; ++l) {
    const Matrix demand = layer_server_matrix(gate, l);
    monitor_.record(rep_region_, l, demand);
    if (is_mixnet()) {
      // Planning demand: Copilot predicts this layer's expert loads from the
      // previous layer and scales last iteration's observed matrix columns
      // accordingly (§B.1); otherwise the oracle matrix is used (the demand
      // is known from the previous micro-batch's identical routing).
      Matrix plan = demand;
      if (cfg_.use_copilot) {
        const auto& prev_load =
            gate.loads[static_cast<std::size_t>(l == 0 ? 0 : l - 1)];
        auto& cp = copilots_[static_cast<std::size_t>(l)];
        const auto predicted = cp.predict(prev_load);
        const Matrix* seen = monitor_.smoothed(rep_region_, l);
        if (seen != nullptr && cp.observations() > 4) {
          // Rescale destination columns toward the predicted rank loads.
          const auto epr = std::max(cfg_.model.n_experts / cfg_.par.ep, 1);
          plan = rescale_plan_columns(*seen, predicted, rank_to_local_server_, epr);
        }
        cp.observe(prev_load, gate.loads[static_cast<std::size_t>(l)]);
      }
      auto outcome = controller_for(rep_region_).prepare(plan, fp_window);
      blocked_fp[static_cast<std::size_t>(l)] = outcome.blocked;
      if (outcome.reconfigured) {
        ++res.reconfigurations;
        blocked_bp[static_cast<std::size_t>(l)] =
            std::max<TimeNs>(cfg_.reconfig_delay - bp_window, 0);
      }
    }
    a2a[static_cast<std::size_t>(l)] =
        runner_->ep_all_to_all(group_servers_, demand);
  }
  last_timeline_ = PhaseTimeline{lt.attention, lt.gate,     a2a[0],
                                 lt.expert,    a2a[0],      lt.add_norm,
                                 blocked_fp[0]};

  // --- PP boundary transfer -------------------------------------------------
  TimeNs pp_time = 0;
  if (stages > 1) {
    const auto next_group = placement_->ep_group_servers(0, 1);
    const Bytes act = moe::pp_activation_bytes(cfg_.model, cfg_.par) /
                      static_cast<double>(group_servers_.size());
    pp_time = runner_->send(group_servers_.front(), next_group.front(), act);
  }

  // --- DP gradient all-reduce ----------------------------------------------
  TimeNs dp_time = 0;
  if (cfg_.par.dp > 1) {
    const int spr = std::max(placement_->total_servers() / cfg_.par.dp, 1);
    dp_time = runner_->dp_all_reduce(
        spr, cfg_.par.dp, moe::dp_gradient_bytes_per_gpu(cfg_.model, cfg_.par));
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
  res.tokens = cfg_.par.tokens_per_microbatch() * micro * cfg_.par.dp;
  return res;
}

std::vector<IterationResult> TrainingSimulator::run(int iterations) {
  std::vector<IterationResult> out;
  out.reserve(static_cast<std::size_t>(iterations));
  for (int i = 0; i < iterations; ++i) out.push_back(run_iteration());
  return out;
}

}  // namespace mixnet::sim
