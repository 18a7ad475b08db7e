#include "replay.h"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/hash.h"
#include "control/controller.h"
#include "control/hotspot.h"
#include "control/monitor.h"
#include "dag/compute_model.h"
#include "dag/taskgraph.h"
#include "moe/gate.h"
#include "moe/placement.h"
#include "moe/traffic.h"
#include "ocs/algorithm.h"
#include "predict/copilot.h"
#include "serve/workload.h"
#include "sim/phase_runner.h"
#include "topo/fabric.h"

namespace perfbench {

namespace control = mixnet::control;
namespace dag = mixnet::dag;
namespace moe = mixnet::moe;
namespace predict = mixnet::predict;
namespace serve = mixnet::serve;
namespace sim = mixnet::sim;
namespace topo = mixnet::topo;
using mixnet::Bytes;
using mixnet::Matrix;
using mixnet::TimeNs;

double Trace::span_total_ms() const {
  double total = 0.0;
  for (const auto& [name, ms] : busy_ms) total += ms;
  return total;
}

namespace {

constexpr double kBf16 = 2.0;

bool is_mixnet(topo::FabricKind k) {
  return k == topo::FabricKind::kMixNet ||
         k == topo::FabricKind::kMixNetOpticalIO;
}

/// Placement, fabric, gate and phase runner, built the way both simulators'
/// constructors build them.
struct Cluster {
  sim::TrainingConfig cfg;
  std::unique_ptr<moe::Placement> placement;
  std::unique_ptr<topo::Fabric> fabric;
  std::unique_ptr<moe::GateSimulator> gate;
  std::unique_ptr<sim::PhaseRunner> runner;
  std::vector<int> group_servers;
  std::vector<int> rank_to_local_server;
  int rep_region = 0;
};

Cluster build_cluster(const sim::TrainingConfig& in, topo::CoreModel core,
                      Trace& t) {
  Cluster c;
  c.cfg = in;
  sim::TrainingConfig& cfg = c.cfg;
  if (!cfg.par_overridden) cfg.par = moe::default_parallelism(cfg.model);
  {
    Span s(t, "topo.build");
    c.placement = std::make_unique<moe::Placement>(cfg.par, cfg.gpus_per_server);
    topo::FabricConfig fc =
        topo::FabricConfig::preset(cfg.fabric_kind, c.placement->total_servers())
            .with_gpus_per_server(cfg.gpus_per_server)
            .with_nics_per_server(cfg.nics_per_server)
            .with_nic_gbps(cfg.nic_gbps)
            .with_oversub(cfg.oversub)
            .with_eps_split(cfg.eps_nics, cfg.optical_degree)
            .with_region_servers(c.placement->region_servers())
            .with_nvlink_gbps_per_gpu(cfg.nvlink_gbps_per_gpu)
            .with_ocs_nic_gbps(cfg.ocs_nic_gbps)
            .with_core_model(core);
    if (is_mixnet(cfg.fabric_kind)) {
      fc.with_eps_split(cfg.eps_nics, cfg.nics_per_server - cfg.eps_nics);
      cfg.optical_degree = fc.optical_degree;
    }
    c.fabric = std::make_unique<topo::Fabric>(topo::Fabric::build(fc));
  }
  t.count("topo.builds");
  {
    Span s(t, "moe.warmup");
    moe::GateConfig gc = cfg.gate;
    gc.n_experts = cfg.model.n_experts;
    gc.n_layers = cfg.model.n_blocks;
    gc.ep_ranks = cfg.par.ep;
    gc.tokens_per_rank =
        cfg.par.tokens_per_microbatch() * cfg.model.top_k / cfg.par.ep;
    gc.seed = cfg.seed;
    c.gate = std::make_unique<moe::GateSimulator>(gc);
  }
  mixnet::collective::EngineConfig ecfg;
  ecfg.a2a_efficiency = cfg.a2a_efficiency;
  ecfg.ring_efficiency = cfg.ring_efficiency;
  ecfg.switched_path_efficiency = cfg.switched_path_efficiency;
  c.runner = std::make_unique<sim::PhaseRunner>(*c.fabric, ecfg,
                                                /*cache_capacity=*/1024,
                                                cfg.backend, cfg.pkt);
  c.group_servers = c.placement->ep_group_servers(0, 0);
  c.rank_to_local_server = c.placement->ep_rank_to_local_server(0, 0);
  if (is_mixnet(cfg.fabric_kind))
    c.rep_region = c.fabric->region_of(c.group_servers.front());
  return c;
}

void warm_up(Cluster& c, Trace& t) {
  Span s(t, "moe.warmup");
  if (c.cfg.warmup_policy == moe::WarmupPolicy::kClosedForm)
    c.gate->advance_steps(c.cfg.warmup_iterations);
  else
    c.gate->skip(c.cfg.warmup_iterations);
}

control::ControllerConfig controller_config(const sim::TrainingConfig& cfg) {
  control::ControllerConfig cc;
  cc.reconfig_delay = cfg.reconfig_delay;
  cc.policy = cfg.policy;
  cc.algo.work_conserving = !cfg.strict_paper_greedy;
  return cc;
}

control::TopologyController::Outcome traced_prepare(
    control::TopologyController& controller, const Matrix& demand,
    TimeNs hide_window, Trace& t) {
  control::TopologyController::Outcome out;
  {
    Span s(t, "control.prepare");
    out = controller.prepare(demand, hide_window);
  }
  t.count("control.prepares");
  if (out.reconfigured) t.count("control.reconfigs");
  return out;
}

/// Every phase goes through the phase runner as in the simulators. When the
/// runner's phase cache will miss (its key -- kind, fabric epoch,
/// participants, demand -- was not seen yet), the phase's server pairs are
/// first routed on the runner's own router, so the BFS trees the phase will
/// need are built inside a net.route span and the phase itself finds them
/// cached. Trees are a pure function of the network, so this moves routing
/// work without changing any route.
class TracedPhases {
 public:
  TracedPhases(Cluster& c, Trace& t) : c_(c), t_(t) {}

  TimeNs ep_all_to_all(const std::vector<int>& group, const Matrix& bytes) {
    if (first_visit(0, group, mixnet::matrix_hash(bytes))) {
      std::vector<std::pair<int, int>> pairs;
      const topo::Fabric& fab = *c_.fabric;
      if (is_mixnet(fab.config().kind)) {
        const int region = fab.region_of(group.front());
        const auto& members = fab.region_servers(region);
        for (std::size_t i = 0; i < members.size(); ++i)
          for (std::size_t j = 0; j < members.size(); ++j)
            if (i != j && bytes(i, j) > 0.0 &&
                fab.circuit_link(region, static_cast<int>(i),
                                 static_cast<int>(j)) == mixnet::net::kInvalidLink)
              pairs.emplace_back(members[i], members[j]);
      } else {
        for (std::size_t i = 0; i < group.size(); ++i)
          for (std::size_t j = 0; j < group.size(); ++j)
            if (i != j && bytes(i, j) > 0.0)
              pairs.emplace_back(group[i], group[j]);
      }
      route(pairs);
    }
    return phase([&] { return c_.runner->ep_all_to_all(group, bytes); });
  }

  TimeNs send(int src, int dst, Bytes bytes) {
    if (first_visit(1, {src, dst}, mixnet::hash64_lane(bytes)) && src != dst &&
        bytes > 0.0)
      route({{src, dst}});
    return phase([&] { return c_.runner->send(src, dst, bytes); });
  }

  TimeNs dp_all_reduce(int servers_per_replica, int dp, Bytes bytes_per_gpu) {
    if (first_visit(3, {servers_per_replica, dp},
                    mixnet::hash64_lane(bytes_per_gpu))) {
      std::vector<std::pair<int, int>> pairs;
      for (int pos = 0; pos < servers_per_replica; ++pos)
        for (int r = 0; r < dp; ++r)
          pairs.emplace_back(r * servers_per_replica + pos,
                             ((r + 1) % dp) * servers_per_replica + pos);
      route(pairs);
    }
    return phase([&] {
      return c_.runner->dp_all_reduce(servers_per_replica, dp, bytes_per_gpu);
    });
  }

  /// Fold the runner's phase-cache counters into the trace.
  void finish() {
    const sim::PhaseCacheStats st = c_.runner->stats();
    t_.count("collective.phase_hits", static_cast<double>(st.hits));
  }

 private:
  bool first_visit(int kind, std::vector<int> participants,
                   std::uint64_t demand) {
    return seen_.emplace(kind, c_.fabric->epoch(), std::move(participants), demand)
        .second;
  }

  void route(const std::vector<std::pair<int, int>>& pairs) {
    // Analytic-core fabrics compute routes in O(1) without the router.
    if (c_.fabric->analytic_core()) return;
    Span s(t_, "net.route");
    mixnet::net::EcmpRouter& router = c_.runner->router();
    for (const auto& [a, b] : pairs)
      router.route(c_.fabric->server_node(a), c_.fabric->server_node(b),
                   /*flow_hash=*/0, /*pin_index=*/a + b);
    t_.count("net.routes", static_cast<double>(pairs.size()));
  }

  template <typename F>
  TimeNs phase(F&& run) {
    t_.count("collective.phases");
    Span s(t_, "collective.phase");
    return run();
  }

  Cluster& c_;
  Trace& t_;
  std::set<std::tuple<int, std::uint64_t, std::vector<int>, std::uint64_t>> seen_;
};

// TrainingSimulator::install_topoopt_circuits: Hamiltonian rings plus
// per-EP-group greedy circuits from the pre-warmup demand.
void install_topoopt_circuits(Cluster& c) {
  const sim::TrainingConfig& cfg = c.cfg;
  topo::Fabric& fab = *c.fabric;
  const int n = fab.n_servers();
  Matrix counts(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.0);
  if (n > 1) {
    for (int ring = 0; ring < 2; ++ring) {
      for (int i = 0; i < n; ++i) {
        const int j = (i + 1) % n;
        if (i == j) continue;
        const auto lo = static_cast<std::size_t>(std::min(i, j));
        const auto hi = static_cast<std::size_t>(std::max(i, j));
        counts(lo, hi) += 1.0;
        counts(hi, lo) += 1.0;
      }
    }
  }
  const int group_alpha = std::max(cfg.nics_per_server - 4, 0);
  const int lps = std::max(cfg.model.n_blocks / cfg.par.pp, 1);
  for (int dp = 0; dp < cfg.par.dp; ++dp) {
    for (int pp = 0; pp < cfg.par.pp; ++pp) {
      const auto members = c.placement->ep_group_servers(dp, pp);
      if (members.size() < 2) continue;
      Matrix demand(members.size(), members.size(), 0.0);
      for (int l = 0; l < lps; ++l) {
        const int layer = std::min(pp * lps + l, cfg.model.n_blocks - 1);
        const Matrix m = moe::aggregate_to_servers(
            c.gate->rank_dispatch_matrix(layer, cfg.model.hidden_dim * kBf16),
            c.placement->ep_rank_to_local_server(dp, pp),
            static_cast<int>(members.size()));
        for (std::size_t a = 0; a < demand.rows(); ++a)
          for (std::size_t b = 0; b < demand.cols(); ++b) demand(a, b) += m(a, b);
      }
      const mixnet::ocs::OcsTopology topo = mixnet::ocs::reconfigure_ocs(demand, group_alpha);
      for (std::size_t a = 0; a < members.size(); ++a)
        for (std::size_t b = 0; b < members.size(); ++b)
          counts(static_cast<std::size_t>(members[a]),
                 static_cast<std::size_t>(members[b])) += topo.counts(a, b);
    }
  }
  fab.apply_circuits(0, counts);
}

// TrainingSimulator::run_iteration.
sim::IterationResult training_iteration(
    Cluster& c, control::TrafficMonitor& monitor,
    std::unique_ptr<control::TopologyController>& controller,
    TracedPhases& phases, Trace& t) {
  const sim::TrainingConfig& cfg = c.cfg;
  {
    Span s(t, "moe.step");
    c.gate->step();
  }
  t.count("moe.steps");
  sim::IterationResult res;

  const dag::LayerTimes lt = dag::forward_layer_times(cfg.model, cfg.par, cfg.compute);
  const double bf = cfg.compute.backward_factor;
  const int lps = std::max(cfg.model.n_blocks / cfg.par.pp, 1);
  const int stages = cfg.par.pp;
  const int micro = cfg.par.n_microbatches;
  const auto nl = static_cast<std::size_t>(lps);
  std::vector<TimeNs> a2a(nl, 0), blocked_fp(nl, 0), blocked_bp(nl, 0);
  const TimeNs fp_window = lt.attention + lt.gate;
  const TimeNs bp_window =
      static_cast<TimeNs>(bf * static_cast<double>(lt.attention + lt.expert));
  for (int l = 0; l < lps; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    Matrix demand;
    {
      Span s(t, "moe.dispatch");
      demand = moe::aggregate_to_servers(
          c.gate->rank_dispatch_matrix(l, cfg.model.hidden_dim * kBf16),
          c.rank_to_local_server, static_cast<int>(c.group_servers.size()));
    }
    {
      Span s(t, "control.monitor");
      monitor.record(c.rep_region, l, demand);
    }
    if (is_mixnet(cfg.fabric_kind)) {
      if (!controller)
        controller = std::make_unique<control::TopologyController>(
            *c.fabric, c.rep_region, controller_config(cfg));
      const auto outcome = traced_prepare(*controller, demand, fp_window, t);
      blocked_fp[lu] = outcome.blocked;
      if (outcome.reconfigured) {
        ++res.reconfigurations;
        blocked_bp[lu] = std::max<TimeNs>(cfg.reconfig_delay - bp_window, 0);
      }
    }
    a2a[lu] = phases.ep_all_to_all(c.group_servers, demand);
  }

  TimeNs pp_time = 0;
  if (stages > 1) {
    const auto next_group = c.placement->ep_group_servers(0, 1);
    const Bytes act = moe::pp_activation_bytes(cfg.model, cfg.par) /
                      static_cast<double>(c.group_servers.size());
    pp_time = phases.send(c.group_servers.front(), next_group.front(), act);
  }
  TimeNs dp_time = 0;
  if (cfg.par.dp > 1) {
    const int spr = std::max(c.placement->total_servers() / cfg.par.dp, 1);
    dp_time = phases.dp_all_reduce(
        spr, cfg.par.dp, moe::dp_gradient_bytes_per_gpu(cfg.model, cfg.par));
  }

  Span dag_span(t, "dag.exec");
  dag::TaskGraph graph;
  const TimeNs comp1 = lt.attention + lt.gate;
  const TimeNs comp_exp = lt.expert;
  const TimeNs comp_norm = lt.add_norm;
  auto scale = [&](TimeNs d) { return static_cast<TimeNs>(bf * static_cast<double>(d)); };
  const auto ns = static_cast<std::size_t>(stages);
  const auto nm = static_cast<std::size_t>(micro);
  std::vector<std::vector<dag::TaskId>> fwd_tail(ns, std::vector<dag::TaskId>(nm, -1));
  std::vector<std::vector<dag::TaskId>> bwd_tail = fwd_tail;
  auto chain = [&](dag::TaskId& prev, dag::Task task) {
    const dag::TaskId id = graph.add(std::move(task));
    if (prev >= 0) graph.add_dep(id, prev);
    prev = id;
    return id;
  };
  for (std::size_t m = 0; m < nm; ++m) {
    for (std::size_t s = 0; s < ns; ++s) {
      dag::TaskId prev = -1;
      if (s > 0) {
        const dag::TaskId send = graph.add({"pp-send", pp_time, nullptr, -1, 0, {}});
        graph.add_dep(send, fwd_tail[s - 1][m]);
        prev = send;
      }
      const int stage = static_cast<int>(s);
      for (std::size_t l = 0; l < nl; ++l) {
        chain(prev, {"attn+gate", comp1, nullptr, stage, 0, {}});
        chain(prev, {"a2a1", blocked_fp[l] + a2a[l], nullptr, stage, 0, {}});
        chain(prev, {"expert", comp_exp, nullptr, stage, 0, {}});
        chain(prev, {"a2a2", a2a[l], nullptr, stage, 0, {}});
        chain(prev, {"add&norm", comp_norm, nullptr, stage, 0, {}});
      }
      fwd_tail[s][m] = prev;
    }
  }
  for (std::size_t m = 0; m < nm; ++m) {
    for (std::size_t s = ns; s-- > 0;) {
      dag::TaskId prev = -1;
      if (s + 1 < ns) {
        const dag::TaskId send =
            graph.add({"pp-send-grad", pp_time, nullptr, -1, 1, {}});
        graph.add_dep(send, bwd_tail[s + 1][m]);
        prev = send;
      }
      const int stage = static_cast<int>(s);
      bool first = true;
      for (std::size_t l = nl; l-- > 0;) {
        const dag::TaskId id =
            chain(prev, {"bwd-norm", scale(comp_norm), nullptr, stage, 1, {}});
        if (first) {
          graph.add_dep(id, fwd_tail[s][m]);
          first = false;
        }
        chain(prev, {"bwd-a2a2", blocked_bp[l] + a2a[l], nullptr, stage, 1, {}});
        chain(prev, {"bwd-expert", scale(comp_exp), nullptr, stage, 1, {}});
        chain(prev, {"bwd-a2a1", a2a[l], nullptr, stage, 1, {}});
        chain(prev, {"bwd-attn", scale(comp1), nullptr, stage, 1, {}});
      }
      bwd_tail[s][m] = prev;
    }
  }
  if (dp_time > 0) {
    for (std::size_t s = 0; s < ns; ++s) {
      const dag::TaskId ar = graph.add({"dp-allreduce", dp_time, nullptr, -1, 2, {}});
      graph.add_dep(ar, bwd_tail[s][nm - 1]);
    }
  }
  mixnet::eventsim::Simulator events;
  dag::Executor exec(events, graph);
  exec.start();
  events.run();
  if (!exec.all_done())
    throw std::runtime_error("replay: iteration DAG did not complete");
  t.count("dag.tasks", static_cast<double>(graph.size()));

  res.total = exec.makespan();
  for (std::size_t l = 0; l < nl; ++l) {
    res.ep_comm += 4 * a2a[l] * micro;
    res.reconfig_blocked += (blocked_fp[l] + blocked_bp[l]) * micro;
  }
  res.pp_send = pp_time;
  res.dp_comm = dp_time;
  res.compute = static_cast<TimeNs>(
      (1.0 + bf) * static_cast<double>(comp1 + comp_exp + comp_norm) * lps * micro);
  res.tokens = cfg.par.tokens_per_microbatch() * micro * cfg.par.dp;
  return res;
}

// ServeSimulator's swap_balance (file-local there): bounded hot<->cold
// expert swaps on the predicted loads, ties toward the lower index.
int swap_balance(const std::vector<double>& basis, std::vector<int>& e2r,
                 std::size_t ep, int max_swaps) {
  const std::size_t ne = basis.size();
  std::vector<double> pred_rank(ep, 0.0);
  for (std::size_t e = 0; e < ne; ++e)
    pred_rank[static_cast<std::size_t>(e2r[e])] += basis[e];
  int moved = 0;
  for (int s = 0; s < max_swaps; ++s) {
    std::size_t hot_r = 0, cold_r = 0;
    for (std::size_t r = 1; r < ep; ++r) {
      if (pred_rank[r] > pred_rank[hot_r]) hot_r = r;
      if (pred_rank[r] < pred_rank[cold_r]) cold_r = r;
    }
    if (hot_r == cold_r) break;
    std::size_t e_hot = ne, e_cold = ne;
    for (std::size_t e = 0; e < ne; ++e) {
      const auto r = static_cast<std::size_t>(e2r[e]);
      if (r == hot_r && (e_hot == ne || basis[e] > basis[e_hot])) e_hot = e;
      if (r == cold_r && (e_cold == ne || basis[e] < basis[e_cold])) e_cold = e;
    }
    if (e_hot == ne || e_cold == ne) break;
    const double gain = basis[e_hot] - basis[e_cold];
    const double gap = pred_rank[hot_r] - pred_rank[cold_r];
    if (!(gain > 0.0) || gain >= gap) break;
    std::swap(e2r[e_hot], e2r[e_cold]);
    pred_rank[hot_r] -= gain;
    pred_rank[cold_r] += gain;
    moved += 2;
  }
  return moved;
}

}  // namespace

std::vector<sim::IterationResult> replay_training(const sim::TrainingConfig& cfg,
                                                  int iterations, Trace& t) {
  if (cfg.use_copilot ||
      cfg.failure.kind != control::FailureScenario::Kind::kNone)
    throw std::invalid_argument(
        "replay: Copilot planning and failure injection are not replayed");
  Cluster c = build_cluster(cfg, cfg.core_model, t);
  if (c.cfg.fabric_kind == topo::FabricKind::kTopoOpt) {
    Span s(t, "control.install");
    install_topoopt_circuits(c);
  }
  warm_up(c, t);
  control::TrafficMonitor monitor;
  std::unique_ptr<control::TopologyController> controller;
  TracedPhases phases(c, t);
  std::vector<sim::IterationResult> out;
  for (int i = 0; i < iterations; ++i)
    out.push_back(training_iteration(c, monitor, controller, phases, t));
  phases.finish();
  return out;
}

serve::ServeReport replay_serve(const sim::TrainingConfig& in,
                                const serve::ServeConfig& scfg, Trace& t) {
  // ServeSimulator always builds the explicit electrical core.
  Cluster c = build_cluster(in, topo::CoreModel::kExplicit, t);
  const sim::TrainingConfig& cfg = c.cfg;
  control::TrafficMonitor monitor;
  control::HotspotDetector detector(control::HotspotConfig{
      scfg.hotspot_window, scfg.hotspot_threshold, scfg.hotspot_cooldown});
  const int lps = std::max(cfg.model.n_blocks / cfg.par.pp, 1);
  const auto nl = static_cast<std::size_t>(lps);
  const auto ne = static_cast<std::size_t>(cfg.model.n_experts);
  const auto ep = static_cast<std::size_t>(cfg.par.ep);
  const int epr = std::max(cfg.model.n_experts / cfg.par.ep, 1);
  std::vector<int> contiguous(ne);
  for (std::size_t e = 0; e < ne; ++e)
    contiguous[e] = std::min(static_cast<int>(e) / epr, cfg.par.ep - 1);
  std::vector<std::vector<int>> expert_to_rank(nl, contiguous);
  std::vector<std::vector<double>> last_loads(nl);
  predict::CopilotConfig pc;
  pc.n_experts = cfg.model.n_experts;
  pc.resolve_every = 64;
  std::vector<predict::Copilot> copilots(nl, predict::Copilot(pc));
  warm_up(c, t);

  // Per-layer EP-rank byte matrix under the current placement, aggregated
  // to region-local servers.
  auto server_demand = [&](int layer, double step_tokens) {
    Span s(t, "moe.dispatch");
    const Matrix& counts = c.gate->dispatch_counts(layer);
    const auto& e2r = expert_to_rank[static_cast<std::size_t>(layer)];
    Matrix bytes(ep, ep, 0.0);
    const double total = counts.sum();
    if (total > 0.0) {
      const double scale =
          step_tokens * cfg.model.top_k * cfg.model.hidden_dim * kBf16 / total;
      for (std::size_t r = 0; r < counts.rows(); ++r)
        for (std::size_t e = 0; e < counts.cols(); ++e) {
          const double v = counts(r, e);
          if (v <= 0.0) continue;
          bytes(r, static_cast<std::size_t>(e2r[e])) += v * scale;
        }
    }
    return moe::aggregate_to_servers(bytes, c.rank_to_local_server,
                                     static_cast<int>(c.group_servers.size()));
  };

  std::unique_ptr<control::TopologyController> controller;
  if (is_mixnet(cfg.fabric_kind)) {
    controller = std::make_unique<control::TopologyController>(
        *c.fabric, c.rep_region, controller_config(cfg));
    for (int l = 0; l < lps; ++l)
      traced_prepare(*controller,
                     server_demand(l, cfg.par.tokens_per_microbatch()),
                     cfg.reconfig_delay, t);
  }
  TracedPhases phases(c, t);
  int pending_reconfig_layers = 0;
  serve::ServeReport report;

  auto simulate_step = [&](double step_tokens) {
    const dag::LayerTimes lt =
        dag::forward_layer_times(cfg.model, cfg.par, cfg.compute);
    const double token_scale =
        step_tokens / std::max(cfg.par.tokens_per_microbatch(), 1.0);
    const auto scaled = [token_scale](TimeNs d) {
      return static_cast<TimeNs>(static_cast<double>(d) * token_scale);
    };
    TimeNs stage = 0;
    for (int l = 0; l < lps; ++l) {
      const Matrix demand = server_demand(l, step_tokens);
      {
        Span s(t, "control.monitor");
        monitor.record(c.rep_region, l, demand);
      }
      TimeNs blocked = 0;
      if (controller && pending_reconfig_layers > 0) {
        const auto outcome = traced_prepare(
            *controller, demand, stage + scaled(lt.attention + lt.gate), t);
        if (outcome.reconfigured) ++report.reconfigurations;
        blocked = outcome.blocked;
        report.reconfig_blocked += outcome.blocked;
        --pending_reconfig_layers;
      }
      const TimeNs a2a = phases.ep_all_to_all(c.group_servers, demand);
      double dilation = 1.0;
      {
        Span s(t, "moe.dispatch");
        const Matrix& counts = c.gate->dispatch_counts(l);
        const auto& e2r = expert_to_rank[static_cast<std::size_t>(l)];
        std::vector<double> rank_load(ep, 0.0);
        double total = 0.0;
        for (std::size_t r = 0; r < counts.rows(); ++r)
          for (std::size_t e = 0; e < counts.cols(); ++e) {
            rank_load[static_cast<std::size_t>(e2r[e])] += counts(r, e);
            total += counts(r, e);
          }
        const double peak = *std::max_element(rank_load.begin(), rank_load.end());
        if (total > 0.0)
          dilation = std::max(peak * static_cast<double>(ep) / total, 1.0);
      }
      stage += scaled(lt.attention + lt.gate + lt.add_norm) + blocked + 2 * a2a +
               static_cast<TimeNs>(static_cast<double>(scaled(lt.expert)) * dilation);
    }
    return stage * cfg.par.pp;
  };

  auto maybe_replace = [&]() -> TimeNs {
    constexpr int kMaxSwapsPerLayer = 2;
    std::vector<double> rank_load(ep, 0.0);
    for (std::size_t l = 0; l < nl; ++l) {
      const std::vector<double>& cur = c.gate->expert_load(static_cast<int>(l));
      if (!last_loads[l].empty()) {
        Span s(t, "predict.observe");
        copilots[l].observe(last_loads[l], cur);
        t.count("predict.calls");
      }
      last_loads[l] = cur;
      for (std::size_t e = 0; e < ne; ++e)
        rank_load[static_cast<std::size_t>(expert_to_rank[l][e])] += cur[e];
    }
    bool hot = false;
    {
      Span s(t, "control.monitor");
      hot = detector.record(rank_load);
    }
    report.peak_imbalance = std::max(report.peak_imbalance, detector.imbalance());
    if (!hot) return 0;
    ++report.hotspot_triggers;
    if (!scfg.replacement_on) return 0;
    int moved = 0;
    for (std::size_t l = 0; l < nl; ++l) {
      std::vector<double> basis;
      if (copilots[l].observations() > 4) {
        Span s(t, "predict.predict");
        basis = copilots[l].predict(last_loads[l]);
        t.count("predict.calls");
      } else {
        basis = last_loads[l];
      }
      moved += swap_balance(basis, expert_to_rank[l], ep, kMaxSwapsPerLayer);
    }
    if (moved == 0) return 0;
    ++report.replacements;
    report.experts_moved += moved;
    pending_reconfig_layers = lps;
    const TimeNs pause = mixnet::ms_to_ns(scfg.migration_ms_per_expert * moved);
    report.migration_paused += pause;
    return pause;
  };

  // ServeSimulator::run: continuous batching over the open-loop trace.
  struct Active {
    std::size_t id = 0;
    bool prefilled = false;
    int emitted = 0;
  };
  const std::vector<serve::Request> trace = serve::generate_workload(scfg, cfg.seed);
  report.records.resize(trace.size());
  std::vector<Active> active;
  const auto batch_cap = static_cast<std::size_t>(std::max(scfg.max_batch_requests, 1));
  std::size_t next = 0, done = 0;
  TimeNs now = 0;
  while (done < trace.size()) {
    if (active.empty()) {
      if (next >= trace.size()) break;
      now = std::max(now, trace[next].arrival_ns);
    }
    while (next < trace.size() && trace[next].arrival_ns <= now &&
           active.size() < batch_cap) {
      active.push_back({next, false, 0});
      ++next;
    }
    double step_tokens = 0.0;
    for (const auto& a : active)
      step_tokens += a.prefilled ? 1.0 : trace[a.id].prompt_tokens;
    {
      Span s(t, "moe.step");
      c.gate->step();
    }
    t.count("moe.steps");
    now += simulate_step(step_tokens);
    now += maybe_replace();
    ++report.engine_steps;
    for (auto it = active.begin(); it != active.end();) {
      serve::RequestRecord& rec = report.records[it->id];
      if (!it->prefilled) {
        it->prefilled = true;
        it->emitted = 1;
        rec.arrival_ns = trace[it->id].arrival_ns;
        rec.prompt_tokens = trace[it->id].prompt_tokens;
        rec.output_tokens = trace[it->id].output_tokens;
        rec.first_token_ns = now;
      } else {
        ++it->emitted;
      }
      if (it->emitted >= trace[it->id].output_tokens) {
        rec.finish_ns = now;
        ++done;
        it = active.erase(it);
      } else {
        ++it;
      }
    }
  }
  report.makespan = now;
  phases.finish();
  return report;
}

}  // namespace perfbench
