// Micro-benchmarks (google-benchmark): hot paths of the MixNet control and
// data planes -- Algorithm 1 allocation, max-min rate solving, routing, and
// the Copilot projected-gradient solve. These bound the control-plane
// latency budget: Algorithm 1 must run well under the OCS reconfiguration
// delay (25 ms) to be usable in-training.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd_math.h"
#include "eventsim/simulator.h"
#include "moe/gate.h"
#include "moe/gate_trace.h"
#include "moe/models.h"
#include "moe/traffic.h"
#include "net/flowsim.h"
#include "net/routing.h"
#include "ocs/algorithm.h"
#include "oracle/packetsim.h"
#include "pkt/engine.h"
#include "predict/copilot.h"
#include "topo/fabric.h"

namespace mixnet {
namespace {

Matrix random_demand(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && rng.uniform() < 0.5) d(i, j) = rng.uniform(1.0, 100.0);
  return d;
}

void BM_Algorithm1(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix d = random_demand(n, 42);
  for (auto _ : state) {
    auto topo = ocs::reconfigure_ocs(d, 6);
    benchmark::DoNotOptimize(topo.total_circuits);
  }
  state.SetLabel("servers=" + std::to_string(n));
}
BENCHMARK(BM_Algorithm1)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Algorithm1WorkConserving(benchmark::State& state) {
  const Matrix d = random_demand(16, 43);
  ocs::ReconfigureOptions opts;
  opts.work_conserving = true;
  for (auto _ : state) {
    auto topo = ocs::reconfigure_ocs(d, 6, opts);
    benchmark::DoNotOptimize(topo.total_circuits);
  }
}
BENCHMARK(BM_Algorithm1WorkConserving);

void BM_FlowSimAllToAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto fabric = topo::Fabric::build(topo::FabricConfig::fat_tree(n));
  net::EcmpRouter router(fabric.network());
  for (auto _ : state) {
    eventsim::Simulator sim;
    net::FlowSim flows(sim, fabric.network());
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        net::FlowSpec s;
        s.src = fabric.server_node(i);
        s.dst = fabric.server_node(j);
        s.size = mib(4);
        s.path = router.route(s.src, s.dst,
                              net::mix_hash(static_cast<std::uint64_t>(i * n + j)));
        flows.start_flow(std::move(s));
      }
    }
    sim.run();
    benchmark::DoNotOptimize(flows.completed_flow_count());
  }
  state.SetLabel("flows=" + std::to_string(n * (n - 1)));
}
BENCHMARK(BM_FlowSimAllToAll)->Arg(4)->Arg(8)->Arg(16);

// ---------------------------------------------------------------------------
// Packet-mode throughput: the reference store-and-forward PacketSim, the
// test oracle in tests/oracle (one std::function event per packet hop on
// the shared calendar) vs the packet
// engine (timing wheel, flat tables, slab descriptors) on the same 64-flow
// fat-tree workload. The engine's speedup is what makes packet-mode runs of
// full training scenarios affordable (DESIGN.md §12).

struct PacketWorkload {
  topo::Fabric fabric;
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  std::vector<std::vector<net::LinkId>> paths;
  Bytes flow_bytes = 0.0;
};

PacketWorkload packet_workload() {
  PacketWorkload w{topo::Fabric::build(topo::FabricConfig::fat_tree(8)), {},
                   {}, mib(0.25)};
  net::EcmpRouter router(w.fabric.network());
  for (int k = 0; k < 64; ++k) {
    const int src = k % 8;
    const int dst = (src + 1 + (k / 8) % 7) % 8;
    w.pairs.emplace_back(w.fabric.server_node(src), w.fabric.server_node(dst));
    w.paths.push_back(router.route(
        w.pairs.back().first, w.pairs.back().second,
        net::mix_hash(static_cast<std::uint64_t>(k))));
  }
  return w;
}

void BM_PacketSimReference(benchmark::State& state) {
  const PacketWorkload w = packet_workload();
  std::uint64_t packets = 0;
  for (auto _ : state) {
    eventsim::Simulator sim;
    net::PacketSim ps(sim, w.fabric.network());
    int done = 0;
    for (std::size_t k = 0; k < w.pairs.size(); ++k) {
      net::PacketFlowSpec s;
      s.src = w.pairs[k].first;
      s.dst = w.pairs[k].second;
      s.size = w.flow_bytes;
      s.path = w.paths[k];
      s.on_complete = [&done](TimeNs) { ++done; };
      ps.start_flow(std::move(s));
    }
    sim.run();
    benchmark::DoNotOptimize(done);
    // Same packet count the engine reports; PacketSim has no counter.
    packets += 64ull * static_cast<std::uint64_t>(
                          std::ceil(w.flow_bytes / 4096.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.SetLabel("flows=64");
}
BENCHMARK(BM_PacketSimReference);

void BM_PacketEngine(benchmark::State& state) {
  const PacketWorkload w = packet_workload();
  std::uint64_t packets = 0;
  for (auto _ : state) {
    pkt::Engine eng(w.fabric.network());
    for (std::size_t k = 0; k < w.paths.size(); ++k)
      eng.add_flow(w.flow_bytes, w.paths[k], 0);
    while (!eng.advance(kTimeInf).empty()) {
    }
    benchmark::DoNotOptimize(eng.packets_forwarded());
    packets += eng.packets_delivered();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.SetLabel("flows=64");
}
BENCHMARK(BM_PacketEngine);

void BM_EcmpRouting(benchmark::State& state) {
  auto fabric = topo::Fabric::build(topo::FabricConfig::fat_tree(128));
  net::EcmpRouter router(fabric.network());
  std::uint64_t h = 0;
  for (auto _ : state) {
    auto path = router.route(fabric.server_node(0), fabric.server_node(127),
                             net::mix_hash(++h));
    benchmark::DoNotOptimize(path.size());
  }
}
BENCHMARK(BM_EcmpRouting);

// Closed-form routing (Fabric::route_analytic) on the explicit core at 2048
// servers, the route every non-TopoOpt fabric takes. Arg(0) is the
// fat-tree, Arg(1) rail-optimized; every pair crosses racks and pods.
void BM_ClosedFormRoute(benchmark::State& state) {
  const auto cfg = state.range(0) == 0 ? topo::FabricConfig::fat_tree(2048)
                                       : topo::FabricConfig::rail_optimized(2048);
  const auto fabric = topo::Fabric::build(cfg);
  const auto half = static_cast<std::uint64_t>(fabric.n_servers() / 2);
  std::uint64_t h = 0;
  for (auto _ : state) {
    ++h;
    const int src = static_cast<int>(h % half);  // first half -> second half
    const int dst = fabric.n_servers() - 1 - src;
    auto route = fabric.route_analytic(src, dst, net::mix_hash(h));
    benchmark::DoNotOptimize(route.path.data());
  }
  state.SetLabel(to_string(cfg.kind));
}
BENCHMARK(BM_ClosedFormRoute)->Arg(0)->Arg(1);

// Fabric construction at the fig26-xl scale point: 131072 GPUs = 16384
// servers. Guards the O(n) leaf-spine build (reserve + single pass); Arg(0)
// is the explicit core, Arg(1) the collapsed analytic core.
void BM_FabricBuild131k(benchmark::State& state) {
  const auto model = state.range(0) == 0 ? topo::CoreModel::kExplicit
                                         : topo::CoreModel::kAnalytic;
  const auto cfg = topo::FabricConfig::fat_tree(16384).with_core_model(model);
  std::size_t links = 0;
  for (auto _ : state) {
    auto fabric = topo::Fabric::build(cfg);
    benchmark::DoNotOptimize(fabric.network().link_count());
    links = fabric.network().link_count();
  }
  state.SetLabel(std::string(to_string(model)) +
                 " links=" + std::to_string(links));
}
BENCHMARK(BM_FabricBuild131k)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// GateSimulator hot paths. After the phase cache + incremental rate solver,
// ~60% of figure-bench samples were gate RNG (refresh_distributions /
// advance_state OU walks); the vectorized fill_normal/fill_gamma fast path
// plus the closed-form warmup skip (advance_steps) are the response. These
// cases track both: the per-iteration stepped path and the fast-forward
// path the figure benches now use.
moe::GateConfig figure_gate_config() {
  // The dimensions the fig12/13 sweeps run: Mixtral 8x7B, one pipeline
  // stage, EP8, ~8k token slots per rank.
  moe::GateConfig gc;
  gc.n_experts = 8;
  gc.ep_ranks = 8;
  gc.n_layers = 8;
  gc.tokens_per_rank = 8192.0;
  return gc;
}

/// One full gate iteration: advance_state + refresh_distributions +
/// realize_counts.
void BM_GateStep(benchmark::State& state) {
  moe::GateSimulator gate(figure_gate_config());
  for (auto _ : state) {
    gate.step();
    benchmark::DoNotOptimize(gate.expert_load(0).data());
  }
}
BENCHMARK(BM_GateStep);

/// advance_state in (near) isolation: skip(n) runs n-1 state-only advances
/// plus one full materializing step, amortized per advanced iteration --
/// the fast-forward pattern the 100-iteration figure-bench warmups use.
void BM_GateAdvanceState(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  moe::GateSimulator gate(figure_gate_config());
  for (auto _ : state) {
    gate.skip(n);
    benchmark::DoNotOptimize(gate.expert_load(0).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("iterations_skipped=" + std::to_string(n));
}
BENCHMARK(BM_GateAdvanceState)->Arg(100);

/// Closed-form warmup fast-forward: one draw per dimension regardless of n,
/// plus a transition-drift round per crossed 50-iteration boundary. The
/// per-advanced-iteration rate is what makes the 100-iteration figure-bench
/// warmups cheap.
void BM_GateAdvanceSteps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  moe::GateSimulator gate(figure_gate_config());
  for (auto _ : state) {
    gate.advance_steps(n);
    benchmark::DoNotOptimize(gate.expert_load(0).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("iterations_advanced=" + std::to_string(n));
}
BENCHMARK(BM_GateAdvanceSteps)->Arg(100);

/// The gate's biggest trace: one fig12 DeepSeek-R1 GateTrace (256 experts,
/// 58 layers, EP 64, PP 16) -- construction of the 3 layers one pipeline
/// stage reads, the 100-iteration closed-form warmup, and iteration(1).
void BM_GateTraceDeepSeekR1(benchmark::State& state) {
  const moe::MoeModelConfig model = moe::deepseek_r1();
  const moe::ParallelismSpec par = moe::default_parallelism(model);
  const moe::GateConfig gc = moe::gate_config(model, par);
  const int layers = std::max(model.n_blocks / par.pp, 1);
  for (auto _ : state) {
    const moe::GateTrace trace(gc, 100, moe::WarmupPolicy::kClosedForm, layers);
    benchmark::DoNotOptimize(trace.iteration(1).loads.data());
  }
  state.SetLabel("layers_read=" + std::to_string(layers) + "/" +
                 std::to_string(model.n_blocks));
}
BENCHMARK(BM_GateTraceDeepSeekR1)->Unit(benchmark::kMillisecond);

/// The pre-warmup counts TopoOpt plans from on that trace: the replay of
/// the 48 layers its 16 stages of 3 read, from the constructor's saved draw
/// cursors (GateSimulator::initial_counts).
void BM_GateInitialCountsDeepSeekR1(benchmark::State& state) {
  const moe::MoeModelConfig model = moe::deepseek_r1();
  const moe::ParallelismSpec par = moe::default_parallelism(model);
  const moe::GateConfig gc = moe::gate_config(model, par);
  const int lps = std::max(model.n_blocks / par.pp, 1);
  const int k = std::min(par.pp * lps, model.n_blocks);
  const moe::GateSimulator gate(gc, lps);
  for (auto _ : state) {
    const std::vector<Matrix> counts = gate.initial_counts(k);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetLabel("layers=" + std::to_string(k) + "/" +
                 std::to_string(model.n_blocks));
}
BENCHMARK(BM_GateInitialCountsDeepSeekR1)->Unit(benchmark::kMillisecond);

/// One layer's Markov propagation: the layer's E x E transition times every
/// EP rank's expert distribution, as refresh_distributions runs it per read
/// layer (and per layer of all of them in the constructor). (64, 16) is the
/// serve gate, (256, 64) DeepSeek-R1 and (256, 128) DeepSeek-V3 in fig16.
void BM_GatePropagate(benchmark::State& state) {
  const auto E = static_cast<std::size_t>(state.range(0));
  const auto R = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  std::vector<double> m(E * E), x(R * E), y(R * E);
  for (double& v : m) v = rng.uniform();
  for (double& v : x) v = rng.uniform();
  for (auto _ : state) {
    vecmath::matvec_batch(m.data(), x.data(), y.data(), E, E, R);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel("experts=" + std::to_string(E) + " ranks=" + std::to_string(R));
}
BENCHMARK(BM_GatePropagate)->Args({64, 16})->Args({256, 64})->Args({256, 128});

/// Bulk standard-normal draws (the block Box-Muller primitive under the gate
/// OU walks and count realization).
void BM_RngFillNormal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> buf(n);
  for (auto _ : state) {
    rng.fill_normal(buf.data(), n);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RngFillNormal)->Arg(8)->Arg(64)->Arg(4096);

/// Bulk gamma draws at the transition-drift concentration (shape < 1 takes
/// the batched shape-boost branch).
void BM_RngFillGamma(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> buf(n);
  for (auto _ : state) {
    rng.fill_gamma(buf.data(), n, 0.08);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RngFillGamma)->Arg(4096);

/// The same draws as BM_RngFillGamma, consumed without computing them (the
/// transition drift of a layer nobody reads).
void BM_RngSkipGamma(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  for (auto _ : state) rng.skip_gamma(n, 0.08);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RngSkipGamma)->Arg(4096);

void BM_CopilotSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  predict::CopilotConfig cfg;
  cfg.n_experts = n;
  cfg.resolve_every = 1;
  Rng rng(7);
  std::vector<std::pair<std::vector<double>, std::vector<double>>> obs;
  for (int i = 0; i < 16; ++i)
    obs.emplace_back(rng.dirichlet(static_cast<std::size_t>(n), 0.5),
                     rng.dirichlet(static_cast<std::size_t>(n), 0.5));
  for (auto _ : state) {
    predict::Copilot cp(cfg);
    for (const auto& [x, y] : obs) cp.observe(x, y);
    benchmark::DoNotOptimize(cp.transition().sum());
  }
  state.SetLabel("experts=" + std::to_string(n));
}
BENCHMARK(BM_CopilotSolve)->Arg(8)->Arg(16)->Arg(64);

}  // namespace
}  // namespace mixnet

BENCHMARK_MAIN();
