// sim::PhaseRunner and the FlowSim incremental rate-solver fast path
// (DESIGN.md §6): phases are deterministic and fabric-sensitive (circuits,
// relays and failures change a repeated phase's duration), malformed phase
// inputs throw in every build type, and the incremental solver agrees
// bit-for-bit with the reference full re-solve under randomized flow churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "control/failures.h"
#include "eventsim/simulator.h"
#include "net/flowsim.h"
#include "net/routing.h"
#include "sim/phase_runner.h"
#include "topo/fabric.h"

namespace mixnet::sim {
namespace {

Matrix uniform_demand(std::size_t n, Bytes per_pair) {
  Matrix m(n, n, per_pair);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 0.0;
  return m;
}

// ------------------------------------------------------- determinism ----

// Every phase is a pure function of its inputs and the live fabric: the
// same call on an unchanged fabric returns the same duration, on both the
// flow and the packet engine. Nothing else makes re-simulating a repeated
// phase equivalent to remembering its result.
TEST(PhaseRunner, RepeatedPhaseIsBitIdentical) {
  const std::vector<int> group = {0, 1, 2, 3, 4, 5, 6, 7};
  Rng rng(5);
  Matrix demand(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      if (i != j) demand(i, j) = kib(64) * (1.0 + 7.0 * rng.uniform());
  Matrix circuits(8, 8, 0.0);
  circuits(0, 1) = circuits(1, 0) = 2.0;
  circuits(2, 5) = circuits(5, 2) = 1.0;

  for (const net::NetBackend backend :
       {net::NetBackend::kFlow, net::NetBackend::kPacket}) {
    auto ft = topo::Fabric::build(topo::FabricConfig::fat_tree(8));
    auto mx = topo::Fabric::build(topo::FabricConfig::mixnet(8).with_region_servers(8));
    mx.apply_circuits(0, circuits);
    for (topo::Fabric* fabric : {&ft, &mx}) {
      SCOPED_TRACE(topo::to_string(fabric->config().kind));
      PhaseRunner pr(*fabric, {}, 0, backend);
      const TimeNs a2a = pr.ep_all_to_all(group, demand);
      const TimeNs send = pr.send(1, 6, mib(1));
      const TimeNs ring = pr.all_reduce(group, mib(1));
      const TimeNs dp = pr.dp_all_reduce(4, 2, mib(1));
      EXPECT_GT(a2a, 0);
      EXPECT_GT(dp, 0);
      EXPECT_EQ(pr.ep_all_to_all(group, demand), a2a);
      EXPECT_EQ(pr.send(1, 6, mib(1)), send);
      EXPECT_EQ(pr.all_reduce(group, mib(1)), ring);
      EXPECT_EQ(pr.dp_all_reduce(4, 2, mib(1)), dp);
    }
  }
}

// Repeated flow-engine phases on a fat-tree. The suite name dates from the
// deleted phase-result cache; with no cache, a repeat re-simulates and must
// return the same duration.
TEST(PhaseCache, HitOnRepeatedDemand) {
  auto fabric = topo::Fabric::build(topo::FabricConfig::fat_tree(8));
  PhaseRunner pr(fabric);
  const std::vector<int> group = {0, 1, 2, 3, 4, 5, 6, 7};
  const Matrix demand = uniform_demand(8, mib(8));
  const TimeNs t1 = pr.ep_all_to_all(group, demand);
  EXPECT_GT(t1, 0);
  EXPECT_EQ(pr.ep_all_to_all(group, demand), t1);
}

TEST(PhaseCache, SendAndDpAllReduceCached) {
  auto fabric = topo::Fabric::build(topo::FabricConfig::fat_tree(8));
  PhaseRunner pr(fabric);
  const TimeNs s1 = pr.send(0, 5, mib(32));
  EXPECT_EQ(pr.send(0, 5, mib(32)), s1);
  const TimeNs d1 = pr.dp_all_reduce(4, 2, mib(64));
  EXPECT_EQ(pr.dp_all_reduce(4, 2, mib(64)), d1);
  // dp=1 has no peer to reduce with.
  EXPECT_EQ(pr.dp_all_reduce(4, 1, mib(64)), 0);
}

// ------------------------------------------------- fabric sensitivity ----

TEST(PhaseRunner, CircuitsShortenMixNetAllToAll) {
  auto fabric = topo::Fabric::build(topo::FabricConfig::mixnet(4)
                                        .with_region_servers(4)
                                        .with_nic_gbps(100.0));
  PhaseRunner pr(fabric);
  const std::vector<int> group = {0, 1, 2, 3};
  const Matrix demand = uniform_demand(4, mib(64));
  const TimeNs before = pr.ep_all_to_all(group, demand);

  Matrix counts(4, 4, 0.0);
  counts(0, 1) = counts(1, 0) = 2.0;
  counts(2, 3) = counts(3, 2) = 2.0;
  ASSERT_GT(fabric.apply_circuits(0, counts), 0);
  EXPECT_LT(pr.ep_all_to_all(group, demand), before);
}

TEST(PhaseRunner, RelaySlowsSend) {
  auto fabric = topo::Fabric::build(topo::FabricConfig::fat_tree(4));
  PhaseRunner pr(fabric);
  const TimeNs direct = pr.send(0, 1, mib(100));
  pr.set_relays({{0, 1, 2}});
  const TimeNs detoured = pr.send(0, 1, mib(100));
  EXPECT_GT(static_cast<double>(detoured), 1.5 * static_cast<double>(direct));
}

TEST(PhaseRunner, OneNicFailureNeverSpeedsSend) {
  auto fabric =
      topo::Fabric::build(topo::FabricConfig::mixnet(4).with_region_servers(4));
  PhaseRunner pr(fabric);
  const TimeNs healthy = pr.send(0, 1, mib(100));
  control::FailureManager failures(fabric);
  failures.apply({control::FailureScenario::Kind::kOneNic, 0});
  pr.set_relays(failures.relays());
  EXPECT_GE(pr.send(0, 1, mib(100)), healthy);
}

// ------------------------------------------------------ input checks ----

// Malformed phase inputs would otherwise index past the demand matrix or
// the group; they throw in every build type, Release included.
TEST(PhaseRunner, MalformedEpAllToAllThrows) {
  auto ft = topo::Fabric::build(topo::FabricConfig::fat_tree(8));
  auto mx =
      topo::Fabric::build(topo::FabricConfig::mixnet(8).with_region_servers(4));
  PhaseRunner on_ft(ft), on_mx(mx);
  for (PhaseRunner* pr : {&on_ft, &on_mx}) {
    EXPECT_THROW(pr->ep_all_to_all({0, 1, 2, 3}, uniform_demand(3, mib(1))),
                 std::invalid_argument);
    EXPECT_THROW(pr->ep_all_to_all({0, 1, 2, 3}, Matrix(4, 5, mib(1))),
                 std::invalid_argument);
    EXPECT_THROW(pr->ep_all_to_all({}, Matrix(0, 0, 0.0)), std::invalid_argument);
    EXPECT_GT(pr->ep_all_to_all({0, 1, 2, 3}, uniform_demand(4, mib(1))), 0);
  }
  // A MixNet EP group must be one whole OCS region.
  EXPECT_THROW(on_mx.ep_all_to_all({0, 1, 2, 3, 4, 5, 6, 7}, uniform_demand(8, mib(1))),
               std::invalid_argument);
  EXPECT_THROW(on_mx.ep_all_to_all({4, 5}, uniform_demand(2, mib(1))),
               std::invalid_argument);
}

// ------------------------------------------------- matrix / demand hash ----

TEST(MatrixHash, DistinguishesContentAndShape) {
  Matrix a(3, 4, 1.0), b(3, 4, 1.0), c(4, 3, 1.0);
  EXPECT_EQ(matrix_hash(a), matrix_hash(b));
  EXPECT_NE(matrix_hash(a), matrix_hash(c));  // same data, different shape
  b(2, 1) += 1e-12;
  EXPECT_NE(matrix_hash(a), matrix_hash(b));  // bit-level sensitivity
}

// -------------------------------------- incremental vs reference solver ----

// Randomized churn over a fat-tree: flows start, cancel, and complete at
// random instants while links flap; after every mutation the incremental
// fast path must match the from-scratch reference solve to 1e-9.
TEST(FlowSimEquivalence, IncrementalMatchesReferenceUnderChurn) {
  auto fabric = topo::Fabric::build(topo::FabricConfig::fat_tree(8));
  net::Network& net = fabric.network();
  net::EcmpRouter router(net);
  eventsim::Simulator sim;
  net::FlowSim fs(sim, net);
  Rng rng(7);

  std::vector<net::FlowId> live;
  auto check = [&] {
    auto ref = fs.reference_rates();
    ASSERT_EQ(ref.size(), fs.active_flow_count());
    for (const auto& [id, rate] : ref) {
      const double got = fs.flow_rate(id);
      EXPECT_NEAR(got, rate, 1e-9 * std::max(1.0, rate)) << "flow " << id;
    }
  };

  for (int step = 0; step < 400; ++step) {
    const double action = rng.uniform();
    if (action < 0.55 || live.empty()) {
      const int src = static_cast<int>(rng.uniform_int(8));
      int dst = static_cast<int>(rng.uniform_int(8));
      if (dst == src) dst = (dst + 1) % 8;
      net::FlowSpec spec;
      spec.src = fabric.server_node(src);
      spec.dst = fabric.server_node(dst);
      spec.size = mib(1) * (1.0 + 63.0 * rng.uniform());
      spec.path = router.route(spec.src, spec.dst,
                               static_cast<std::uint64_t>(step) * 2654435761u);
      if (spec.path.empty()) continue;  // pair unreachable while links are down
      live.push_back(fs.start_flow(std::move(spec)));
    } else if (action < 0.8) {
      const auto k = static_cast<std::size_t>(rng.uniform_int(live.size()));
      fs.cancel_flow(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else if (action < 0.9) {
      // Flap a random link; stalled flows must rate 0 in both solvers.
      const auto lid = static_cast<net::LinkId>(rng.uniform_int(net.link_count()));
      net.set_up(lid, !net.is_up(lid));
      fs.on_topology_change();
      router.invalidate();
    } else {
      // Let simulated time advance so completions interleave with churn.
      sim.run_until(sim.now() +
                    us_to_ns(50.0 * static_cast<double>(1 + rng.uniform_int(20))));
      const auto still_live = fs.reference_rates();  // completed flows drop out
      live.erase(std::remove_if(
                     live.begin(), live.end(),
                     [&](net::FlowId id) { return still_live.count(id) == 0; }),
                 live.end());
    }
    check();
  }
  // Restore all links and drain: every surviving flow completes.
  for (std::size_t l = 0; l < net.link_count(); ++l)
    net.set_up(static_cast<net::LinkId>(l), true);
  fs.on_topology_change();
  sim.run();
  EXPECT_EQ(fs.active_flow_count(), 0u);
}

TEST(FlowSimEquivalence, LinkThroughputIndexMatchesPathScan) {
  auto fabric = topo::Fabric::build(topo::FabricConfig::fat_tree(8));
  net::Network& net = fabric.network();
  net::EcmpRouter router(net);
  eventsim::Simulator sim;
  net::FlowSim fs(sim, net);

  struct Started {
    net::FlowId id;
    std::vector<net::LinkId> path;
  };
  std::vector<Started> flows;
  for (int i = 0; i < 24; ++i) {
    const int src = i % 8;
    const int dst = (i + 3) % 8;
    net::FlowSpec spec;
    spec.src = fabric.server_node(src);
    spec.dst = fabric.server_node(dst);
    spec.size = mib(4);
    spec.path = router.route(spec.src, spec.dst, static_cast<std::uint64_t>(i) * 31);
    auto path = spec.path;
    flows.push_back({fs.start_flow(std::move(spec)), std::move(path)});
  }
  for (std::size_t l = 0; l < net.link_count(); ++l) {
    const auto lid = static_cast<net::LinkId>(l);
    double expect = 0.0;
    for (const auto& f : flows)
      for (net::LinkId p : f.path)
        if (p == lid) expect += fs.flow_rate(f.id);
    EXPECT_NEAR(fs.link_throughput(lid), expect, 1e-6 * std::max(1.0, expect));
  }
}

// --- Analytic-core equivalence (DESIGN.md §13). ------------------------------
//
// At oversub <= 1 a ToR uplink's fair share is a mediant of its NIC links'
// shares, so it can never be the unique max-min bottleneck: dropping the
// core from the graph must preserve every phase duration. Tolerance is
// 1e-9 relative (or 2 ns absolute) -- the two graphs solve over different
// link sets, so last-ulp rate noise can shift a completion across an
// integer-nanosecond boundary.

void expect_phase_eq(TimeNs explicit_t, TimeNs analytic_t, const char* what) {
  const double tol =
      std::max(2.0, 1e-9 * static_cast<double>(explicit_t));
  EXPECT_NEAR(static_cast<double>(analytic_t), static_cast<double>(explicit_t),
              tol)
      << what;
}

TEST(AnalyticCoreEquivalence, FatTreePhaseDurationsMatchExplicit) {
  auto fe = topo::Fabric::build(topo::FabricConfig::fat_tree(8));
  auto fa = topo::Fabric::build(topo::FabricConfig::fat_tree(8).with_core_model(
      topo::CoreModel::kAnalytic));
  PhaseRunner pe(fe), pa(fa);
  const std::vector<int> group = {0, 1, 2, 3, 4, 5, 6, 7};

  expect_phase_eq(pe.send(0, 7, mib(256)), pa.send(0, 7, mib(256)), "send");
  expect_phase_eq(pe.all_reduce(group, mib(128)), pa.all_reduce(group, mib(128)),
                  "all_reduce");
  Rng rng(11);
  for (int round = 0; round < 4; ++round) {
    Matrix demand(8, 8, 0.0);
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = 0; j < 8; ++j)
        if (i != j) demand(i, j) = mib(1) * (1.0 + 31.0 * rng.uniform());
    expect_phase_eq(pe.ep_all_to_all(group, demand),
                    pa.ep_all_to_all(group, demand), "ep_all_to_all");
  }
}

TEST(AnalyticCoreEquivalence, MixNetEpsMatchesExplicitUnderCircuitChurn) {
  auto make = [](topo::CoreModel m) {
    return topo::Fabric::build(topo::FabricConfig::mixnet(8)
                                   .with_region_servers(8)
                                   .with_core_model(m));
  };
  auto fe = make(topo::CoreModel::kExplicit);
  auto fa = make(topo::CoreModel::kAnalytic);
  PhaseRunner pe(fe), pa(fa);
  const std::vector<int> group = {0, 1, 2, 3, 4, 5, 6, 7};

  Rng rng(23);
  for (int round = 0; round < 6; ++round) {
    // Install identical random circuits on both fabrics: route choice
    // (circuit-first, then EPS ECMP) must agree between core models.
    Matrix counts(8, 8, 0.0);
    const int pairs = 1 + static_cast<int>(rng.uniform_int(3));
    for (int p = 0; p < pairs; ++p) {
      const auto a = rng.uniform_int(8);
      auto b = rng.uniform_int(8);
      if (b == a) b = (b + 1) % 8;
      const double k = 1.0 + static_cast<double>(rng.uniform_int(3));
      counts(a, b) = counts(b, a) = k;
    }
    fe.apply_circuits(0, counts);
    fa.apply_circuits(0, counts);

    Matrix demand(8, 8, 0.0);
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = 0; j < 8; ++j)
        if (i != j) demand(i, j) = mib(1) * (1.0 + 15.0 * rng.uniform());
    expect_phase_eq(pe.ep_all_to_all(group, demand),
                    pa.ep_all_to_all(group, demand), "ep_all_to_all");
    expect_phase_eq(pe.send(1, 6, mib(64)), pa.send(1, 6, mib(64)), "send");
  }
}

// --- Router counters: closed-form fabrics never fall back to BFS. ------------

std::uint64_t trees_built_by_phases(topo::Fabric& fabric,
                                    const std::vector<int>& group,
                                    int servers_per_replica) {
  PhaseRunner pr(fabric);
  pr.ep_all_to_all(group, uniform_demand(group.size(), mib(8)));
  pr.dp_all_reduce(servers_per_replica, 2, mib(16));
  return pr.router().trees_built();
}

TEST(RouterCounters, ClosedFormFabricsBuildNoBfsTrees) {
  const std::vector<int> group = {0, 1, 2, 3, 4, 5, 6, 7};
  auto ft = topo::Fabric::build(topo::FabricConfig::fat_tree(16));
  EXPECT_EQ(trees_built_by_phases(ft, group, 8), 0u);
  // Two 32-server pods: the group and the DP rings cross pods via the core.
  auto rail = topo::Fabric::build(topo::FabricConfig::rail_optimized(64));
  EXPECT_EQ(trees_built_by_phases(rail, {28, 29, 30, 31, 32, 33, 34, 35}, 32), 0u);

  // MixNet under circuit churn: each round simulates both phases on the
  // newly installed circuits.
  auto mx = topo::Fabric::build(topo::FabricConfig::mixnet(16).with_region_servers(8));
  PhaseRunner pr(mx);
  for (std::size_t round = 0; round < 3; ++round) {
    Matrix counts(8, 8, 0.0);
    counts(round, round + 1) = counts(round + 1, round) = 2.0;
    mx.apply_circuits(0, counts);
    pr.ep_all_to_all(group, uniform_demand(8, mib(8)));
    pr.dp_all_reduce(8, 2, mib(16));
  }
  EXPECT_EQ(pr.router().trees_built(), 0u);
}

TEST(RouterCounters, TopoOptRoutesThroughBfs) {
  auto to = topo::Fabric::build(topo::FabricConfig::topoopt(16));
  Matrix ring(16, 16, 0.0);
  for (std::size_t i = 0; i < 16; ++i)
    ring(i, (i + 1) % 16) = ring((i + 1) % 16, i) = 1.0;
  to.apply_circuits(0, ring);
  EXPECT_GT(trees_built_by_phases(to, {0, 1, 2, 3, 4, 5, 6, 7}, 8), 0u);
}

TEST(AnalyticCoreEquivalence, PacketBackendRejectedOnAnalyticFabric) {
  auto fa = topo::Fabric::build(topo::FabricConfig::fat_tree(4).with_core_model(
      topo::CoreModel::kAnalytic));
  EXPECT_THROW(PhaseRunner(fa, {}, 0, net::NetBackend::kPacket),
               std::invalid_argument);
  // The analytic *transport* rung is fine -- only per-hop packet walking
  // needs node-contiguous paths.
  PhaseRunner ok(fa, {}, 0, net::NetBackend::kAnalytic);
  EXPECT_GT(ok.send(0, 3, mib(16)), 0);
}

}  // namespace
}  // namespace mixnet::sim
