#include <gtest/gtest.h>

#include <cmath>

#include "collective/engine.h"
#include "eventsim/simulator.h"
#include "net/flowsim.h"
#include "net/routing.h"
#include "topo/fabric.h"

namespace mixnet::collective {
namespace {

struct Harness {
  topo::Fabric fabric;
  eventsim::Simulator sim;
  net::FlowSim flows;
  net::EcmpRouter router;
  Engine engine;

  explicit Harness(topo::FabricConfig cfg, EngineConfig ecfg = {})
      : fabric(topo::Fabric::build(cfg)),
        flows(sim, fabric.network()),
        router(fabric.network(), 256,
               cfg.kind == topo::FabricKind::kTopoOpt),
        engine(sim, fabric, flows, router, ecfg) {}

  TimeNs run(std::function<void(Engine&, Engine::Callback)> launch) {
    TimeNs done = -1;
    launch(engine, [&](TimeNs t) { done = t; });
    sim.run();
    EXPECT_GE(done, 0) << "collective did not complete";
    return done;
  }
};

topo::FabricConfig fat_tree(int servers, double gbps_ = 100.0) {
  return topo::FabricConfig::fat_tree(servers).with_nic_gbps(gbps_);
}

topo::FabricConfig mixnet(int servers, int region, double gbps_ = 100.0) {
  return topo::FabricConfig::mixnet(servers).with_nic_gbps(gbps_).with_region_servers(
      region);
}

TEST(Engine, SendMatchesSingleNicThroughput) {
  Harness h(fat_tree(4));
  // 400 MiB split over 4 stripes: channel pinning lands each stripe on a
  // distinct 100G NIC link, so duration ~ size/(4*100G) + overhead.
  const Bytes size = mib(400);
  const TimeNs t = h.run([&](Engine& e, Engine::Callback cb) {
    e.send(0, 1, size, std::move(cb));
  });
  const double ideal = size / (4.0 * gbps(100));
  EXPECT_GT(ns_to_sec(t), ideal * 0.99);
  EXPECT_LT(ns_to_sec(t), ideal * 1.3);
}

TEST(Engine, RingAllReduceMatchesClosedForm) {
  Harness h(fat_tree(8));
  const Bytes g = mib(64);
  const TimeNs t = h.run([&](Engine& e, Engine::Callback cb) {
    std::vector<int> servers = {0, 1, 2, 3, 4, 5, 6, 7};
    e.all_reduce_ring(servers, g, std::move(cb));
  });
  // Each edge moves 2*(7/8)*64 MiB; 2 rings over distinct NICs -> each flow
  // 56 MiB at 100G.
  const double edge = 2.0 * 7.0 / 8.0 * g / 2.0;  // per ring flow
  const double ideal = edge / gbps(100);
  EXPECT_NEAR(ns_to_sec(t), ideal, ideal * 0.6);
  EXPECT_GT(ns_to_sec(t), ideal * 0.95);
}

TEST(Engine, RingAllReduceSingleParticipantInstant) {
  Harness h(fat_tree(4));
  const TimeNs t = h.run([&](Engine& e, Engine::Callback cb) {
    e.all_reduce_ring({2}, mib(100), std::move(cb));
  });
  EXPECT_LT(t, ms_to_ns(1));
}

TEST(Engine, HierarchicalAllReduceSlowerThanRingAlone) {
  Harness h1(fat_tree(4));
  const Bytes g = mib(32);
  const TimeNs ring = h1.run([&](Engine& e, Engine::Callback cb) {
    e.all_reduce_ring({0, 1, 2, 3}, g, std::move(cb));
  });
  Harness h2(fat_tree(4));
  const TimeNs hier = h2.run([&](Engine& e, Engine::Callback cb) {
    e.hierarchical_all_reduce({0, 1, 2, 3}, g, std::move(cb));
  });
  EXPECT_GT(hier, ring);  // adds NVSwitch reduce + broadcast stages
  EXPECT_LT(hier, ring + ms_to_ns(60));
}

TEST(Engine, AllToAllDirectUniform) {
  Harness h(fat_tree(4));
  const std::vector<int> servers = {0, 1, 2, 3};
  Matrix bytes(4, 4, mib(8));
  const TimeNs t = h.run([&](Engine& e, Engine::Callback cb) {
    e.all_to_all_direct(servers, bytes, std::move(cb));
  });
  // Each server egresses 24 MiB over 8 NICs (plus diagonal via NVSwitch).
  EXPECT_GT(t, us_to_ns(100));
  EXPECT_LT(t, ms_to_ns(40));
}

TEST(Engine, MixNetAllToAllUsesCircuits) {
  auto cfg = mixnet(4, 4);
  Harness h(cfg);
  // Hot pair (0,1): give it circuits; cold pairs fall back to EPS.
  Matrix counts(4, 4, 0.0);
  counts(0, 1) = counts(1, 0) = 6;
  h.fabric.apply_circuits(0, counts);
  Matrix bytes(4, 4, 0.0);
  bytes(0, 1) = mib(600);  // hot
  bytes(2, 3) = mib(8);    // cold, via EPS
  const TimeNs t = h.run([&](Engine& e, Engine::Callback cb) {
    e.all_to_all_mixnet(0, bytes, std::move(cb));
  });
  // Hot transfer at 6x100G: ~0.84 s/GB -> 600 MiB ~ 1.05 s at 75 GB/s ~ 8.4ms.
  const double hot_ideal = mib(600) / (6.0 * gbps(100));
  EXPECT_LT(ns_to_sec(t), hot_ideal * 1.6);
  EXPECT_GT(ns_to_sec(t), hot_ideal * 0.95);
}

TEST(Engine, MixNetCircuitsBeatEpsFallbackForHotPair) {
  const Bytes hot = mib(600);
  auto run_with_circuits = [&](bool circuits) {
    Harness h(mixnet(4, 4));
    if (circuits) {
      Matrix counts(4, 4, 0.0);
      counts(0, 1) = counts(1, 0) = 6;
      h.fabric.apply_circuits(0, counts);
    }
    Matrix bytes(4, 4, 0.0);
    bytes(0, 1) = hot;
    return h.run([&](Engine& e, Engine::Callback cb) {
      e.all_to_all_mixnet(0, bytes, std::move(cb));
    });
  };
  const TimeNs with_c = run_with_circuits(true);
  const TimeNs without_c = run_with_circuits(false);  // 2 EPS NICs only
  EXPECT_LT(static_cast<double>(with_c), 0.5 * static_cast<double>(without_c));
}

TEST(Engine, EpAllToAllDispatchesPerFabric) {
  // MixNet requires group == region; fat-tree takes any server set.
  Harness hf(fat_tree(8));
  Matrix bytes(4, 4, mib(4));
  const TimeNs t = hf.run([&](Engine& e, Engine::Callback cb) {
    e.ep_all_to_all({0, 1, 2, 3}, bytes, std::move(cb));
  });
  EXPECT_GT(t, 0);
}

TEST(Engine, DiagonalOnlyMatrixStaysOnNvswitch) {
  Harness h(fat_tree(4));
  Matrix bytes(4, 4, 0.0);
  for (int i = 0; i < 4; ++i) bytes(static_cast<std::size_t>(i),
                                    static_cast<std::size_t>(i)) = mib(64);
  const TimeNs t = h.run([&](Engine& e, Engine::Callback cb) {
    e.all_to_all_direct({0, 1, 2, 3}, bytes, std::move(cb));
  });
  // NVSwitch at 4800 Gbps/GPU: 8 MiB per GPU ~ 14 us + overhead.
  EXPECT_LT(t, ms_to_ns(1));
  EXPECT_EQ(h.flows.completed_flow_count(), 0u);  // no scale-out flows
}

TEST(Engine, RelayDetourSlowerThanDirect) {
  Harness h1(fat_tree(4));
  const Bytes size = mib(100);
  const TimeNs direct = h1.run([&](Engine& e, Engine::Callback cb) {
    e.send(0, 1, size, std::move(cb));
  });
  Harness h2(fat_tree(4));
  h2.engine.set_relay(0, 1, 2);
  const TimeNs detoured = h2.run([&](Engine& e, Engine::Callback cb) {
    e.send(0, 1, size, std::move(cb));
  });
  EXPECT_GT(static_cast<double>(detoured), 1.7 * static_cast<double>(direct));
}

TEST(Engine, TopoOptRoutesMultiHopOverCircuits) {
  Harness h(topo::FabricConfig::topoopt(4).with_nic_gbps(100.0));
  // Ring circuits only: 0-1, 1-2, 2-3, 3-0.
  Matrix counts(4, 4, 0.0);
  for (int i = 0; i < 4; ++i) {
    const int j = (i + 1) % 4;
    counts(static_cast<std::size_t>(std::min(i, j)),
           static_cast<std::size_t>(std::max(i, j))) = 1;
    counts(static_cast<std::size_t>(std::max(i, j)),
           static_cast<std::size_t>(std::min(i, j))) = 1;
  }
  h.fabric.apply_circuits(0, counts);
  // 0 -> 2 has no direct circuit; host forwarding makes it reachable.
  const TimeNs t = h.run([&](Engine& e, Engine::Callback cb) {
    e.send(0, 2, mib(10), std::move(cb));
  });
  EXPECT_GT(t, 0);
}

TEST(Engine, LaunchOverheadAppliesToEmptyCollective) {
  // An empty collective costs exactly the fixed 20 us launch overhead.
  Harness h(fat_tree(4));
  const TimeNs t = h.run([&](Engine& e, Engine::Callback cb) {
    e.all_to_all_direct({0, 1}, Matrix(2, 2, 0.0), std::move(cb));
  });
  EXPECT_EQ(t, us_to_ns(20));
}

}  // namespace
}  // namespace mixnet::collective
