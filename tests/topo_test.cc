#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/matrix.h"
#include "control/failures.h"
#include "net/routing.h"
#include "topo/fabric.h"

namespace mixnet::topo {
namespace {

FabricConfig base_config(FabricKind kind, int n_servers = 8) {
  FabricConfig c;
  c.kind = kind;
  c.n_servers = n_servers;
  c.nic_gbps = 100.0;
  return c;
}

TEST(Fabric, FatTreeConnectsAllServerPairs) {
  Fabric f = Fabric::build(base_config(FabricKind::kFatTree, 16));
  net::EcmpRouter r(f.network());
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      if (i == j) continue;
      EXPECT_FALSE(r.route(f.server_node(i), f.server_node(j), 7).empty())
          << i << "->" << j;
    }
  }
}

TEST(Fabric, FatTreeHasPerNicParallelLinks) {
  Fabric f = Fabric::build(base_config(FabricKind::kFatTree, 4));
  // Each server should have nics_per_server out-links to its ToR.
  const auto& n = f.network().node(f.server_node(0));
  EXPECT_EQ(n.out_links.size(), 8u);
}

TEST(Fabric, RailOptimizedSameRankOneSwitchApart) {
  Fabric f = Fabric::build(base_config(FabricKind::kRailOptimized, 16));
  net::EcmpRouter r(f.network());
  // Same pod: 2 hops through a rail switch.
  EXPECT_EQ(r.distance(f.server_node(0), f.server_node(1)), 2);
}

TEST(Fabric, OverSubUplinkIsSlimmer) {
  Fabric f1 = Fabric::build(base_config(FabricKind::kFatTree, 8));
  FabricConfig oc = base_config(FabricKind::kOverSubFatTree, 8);
  oc.oversub = 3.0;
  Fabric f3 = Fabric::build(oc);
  // Find uplink capacities (links into the core node, which is node index
  // n_servers in construction order).
  auto uplink_cap = [](const Fabric& f) {
    Bps total = 0;
    for (const auto& l : f.network().links()) {
      if (f.network().node(l.dst).label == "core") total += l.capacity;
    }
    return total;
  };
  EXPECT_NEAR(uplink_cap(f1) / uplink_cap(f3), 3.0, 1e-6);
}

TEST(Fabric, MixNetSplitsNics) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.eps_nics = 2;
  c.optical_degree = 6;
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  EXPECT_EQ(f.n_regions(), 2);
  EXPECT_EQ(f.optical_degree(), 6);
  EXPECT_TRUE(f.has_circuits());
  EXPECT_TRUE(f.has_eps());
  // EPS side: 2 NIC links to ToR.
  EXPECT_EQ(f.network().node(f.server_node(0)).out_links.size(), 2u);
}

TEST(Fabric, MixNetRejectsBadNicSplit) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.eps_nics = 3;
  c.optical_degree = 6;  // 3 + 6 != 8
  EXPECT_THROW(Fabric::build(c), std::invalid_argument);
}

TEST(Fabric, RegionAssignmentContiguous) {
  FabricConfig c = base_config(FabricKind::kMixNet, 16);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  EXPECT_EQ(f.n_regions(), 4);
  EXPECT_EQ(f.region_of(0), 0);
  EXPECT_EQ(f.region_of(3), 0);
  EXPECT_EQ(f.region_of(4), 1);
  EXPECT_EQ(f.region_servers(1), (std::vector<int>{4, 5, 6, 7}));
}

TEST(Fabric, ApplyCircuitsCreatesDuplexLinks) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  Matrix counts(4, 4, 0.0);
  counts(0, 1) = counts(1, 0) = 2;
  counts(2, 3) = counts(3, 2) = 1;
  f.apply_circuits(0, counts);
  const net::LinkId l01 = f.circuit_link(0, 0, 1);
  ASSERT_NE(l01, net::kInvalidLink);
  EXPECT_DOUBLE_EQ(f.network().link(l01).capacity, 2 * gbps(100));
  EXPECT_NE(f.circuit_link(0, 1, 0), net::kInvalidLink);
  EXPECT_EQ(f.circuit_link(0, 0, 2), net::kInvalidLink);
  EXPECT_EQ(f.circuit_link(0, 0, 0), net::kInvalidLink);
}

TEST(Fabric, ReapplyCircuitsTearsDownStale) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  Matrix a(4, 4, 0.0);
  a(0, 1) = a(1, 0) = 3;
  f.apply_circuits(0, a);
  Matrix b(4, 4, 0.0);
  b(0, 2) = b(2, 0) = 1;
  f.apply_circuits(0, b);
  EXPECT_EQ(f.circuit_link(0, 0, 1), net::kInvalidLink);
  EXPECT_NE(f.circuit_link(0, 0, 2), net::kInvalidLink);
  Matrix now = f.circuit_counts(0);
  EXPECT_DOUBLE_EQ(now(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(now(0, 2), 1.0);
}

TEST(Fabric, CircuitDegreeEnforced) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  Matrix counts(4, 4, 0.0);
  counts(0, 1) = counts(1, 0) = 4;
  counts(0, 2) = counts(2, 0) = 3;  // row 0 sums to 7 > alpha 6
  EXPECT_THROW(f.apply_circuits(0, counts), std::invalid_argument);
}

// Release builds compile assert() out; these checks must hold there too.
TEST(Fabric, ApplyCircuitsRejectsBadRegionAndCounts) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  ASSERT_EQ(f.n_regions(), 2);
  Matrix ok(4, 4, 0.0);
  ok(0, 1) = ok(1, 0) = 1;
  EXPECT_THROW(f.apply_circuits(-1, ok), std::out_of_range);
  EXPECT_THROW(f.apply_circuits(2, ok), std::out_of_range);
  EXPECT_THROW(f.apply_circuits(0, Matrix(3, 3, 0.0)), std::invalid_argument);
  EXPECT_THROW(f.apply_circuits(0, Matrix(4, 5, 0.0)), std::invalid_argument);
  Matrix asym(4, 4, 0.0);
  asym(0, 1) = 2;
  asym(1, 0) = 1;
  EXPECT_THROW(f.apply_circuits(0, asym), std::invalid_argument);
  EXPECT_EQ(f.circuit_link(0, 0, 1), net::kInvalidLink);  // nothing applied
  EXPECT_GT(f.apply_circuits(1, ok), 0);
}

TEST(Fabric, RegionCircuitsDarkDuringReconfig) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  Matrix counts(4, 4, 0.0);
  counts(0, 1) = counts(1, 0) = 1;
  f.apply_circuits(0, counts);
  f.set_region_circuits_up(0, false);
  EXPECT_EQ(f.circuit_link(0, 0, 1), net::kInvalidLink);
  f.set_region_circuits_up(0, true);
  EXPECT_NE(f.circuit_link(0, 0, 1), net::kInvalidLink);
}

// The epoch moves on circuit installs, link up/down and failure injection
// (perfbench's traced replay keys its first-visit routing on it).
TEST(Fabric, EpochMovesOnEveryLinkMutation) {
  Fabric f = Fabric::build(FabricConfig::mixnet(4).with_region_servers(4));
  auto last = f.epoch();
  auto moved = [&] { return std::exchange(last, f.epoch()) < f.epoch(); };
  Matrix counts(4, 4, 0.0);
  counts(0, 1) = counts(1, 0) = 2.0;
  ASSERT_GT(f.apply_circuits(0, counts), 0);
  EXPECT_TRUE(moved());
  f.network().set_up(0, false);
  EXPECT_TRUE(moved());
  f.network().set_up(0, true);
  EXPECT_TRUE(moved());
  control::FailureManager failures(f);
  failures.apply({control::FailureScenario::Kind::kOneNic, 0});
  EXPECT_TRUE(moved());
}

TEST(Fabric, TopoOptHasNoEps) {
  Fabric f = Fabric::build(base_config(FabricKind::kTopoOpt, 8));
  EXPECT_FALSE(f.has_eps());
  EXPECT_TRUE(f.has_circuits());
  EXPECT_EQ(f.optical_degree(), 8);
  EXPECT_EQ(f.n_regions(), 1);
  EXPECT_EQ(f.n_switch_nodes(), 0);
}

TEST(Fabric, OpticalIoUsesOcsRate) {
  FabricConfig c = base_config(FabricKind::kMixNetOpticalIO, 4);
  c.eps_nics = 2;
  c.optical_degree = 6;
  c.region_servers = 2;
  c.ocs_nic_gbps = 3600.0;
  Fabric f = Fabric::build(c);
  Matrix counts(2, 2, 0.0);
  counts(0, 1) = counts(1, 0) = 1;
  f.apply_circuits(0, counts);
  EXPECT_DOUBLE_EQ(f.network().link(f.circuit_link(0, 0, 1)).capacity, gbps(3600));
}

class FabricConnectivity : public ::testing::TestWithParam<FabricKind> {};

TEST_P(FabricConnectivity, AllPairsReachableOnEpsFabrics) {
  FabricConfig c = base_config(GetParam(), 12);
  c.region_servers = 4;
  if (GetParam() == FabricKind::kMixNet) {
    c.eps_nics = 2;
    c.optical_degree = 6;
  }
  Fabric f = Fabric::build(c);
  net::EcmpRouter r(f.network());
  for (int i = 0; i < f.n_servers(); ++i) {
    for (int j = 0; j < f.n_servers(); ++j) {
      if (i == j) continue;
      EXPECT_GT(r.distance(f.server_node(i), f.server_node(j)), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpsKinds, FabricConnectivity,
                         ::testing::Values(FabricKind::kFatTree,
                                           FabricKind::kOverSubFatTree,
                                           FabricKind::kRailOptimized,
                                           FabricKind::kMixNet));

// --- Preset factories + validate() (the redesigned FabricConfig API). --------

TEST(FabricConfig, PresetFactoriesMatchFieldByFieldConstruction) {
  const FabricConfig a = FabricConfig::mixnet(8).with_nic_gbps(100.0);
  FabricConfig b = base_config(FabricKind::kMixNet, 8);
  b.eps_nics = 2;
  b.optical_degree = 6;
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.n_servers, b.n_servers);
  EXPECT_EQ(a.eps_nics, b.eps_nics);
  EXPECT_EQ(a.optical_degree, b.optical_degree);
  EXPECT_DOUBLE_EQ(a.nic_gbps, b.nic_gbps);
  EXPECT_DOUBLE_EQ(FabricConfig::nvl72(4).nvlink_gbps_per_gpu, 7200.0);
  EXPECT_DOUBLE_EQ(FabricConfig::oversub_fat_tree(4).oversub, 3.0);
  // preset() dispatches to the same factories.
  EXPECT_EQ(FabricConfig::preset(FabricKind::kTopoOpt, 6).kind,
            FabricKind::kTopoOpt);
  EXPECT_EQ(FabricConfig::preset(FabricKind::kTopoOpt, 6).n_servers, 6);
}

TEST(FabricConfig, ValidateReturnsStructuredErrors) {
  EXPECT_TRUE(FabricConfig::fat_tree(8).validate().empty());
  const auto errs = FabricConfig::mixnet(8)
                        .with_eps_split(3, 6)  // 3 + 6 != 8
                        .with_nic_gbps(-1.0)
                        .validate();
  ASSERT_GE(errs.size(), 2u);  // one error per violated field, not a throw
  bool saw_split = false, saw_gbps = false;
  for (const auto& e : errs) {
    if (e.find("eps_nics") != std::string::npos ||
        e.find("optical_degree") != std::string::npos)
      saw_split = true;
    if (e.find("nic_gbps") != std::string::npos) saw_gbps = true;
  }
  EXPECT_TRUE(saw_split);
  EXPECT_TRUE(saw_gbps);
}

TEST(FabricConfig, AnalyticCoreRequiresLeafSpine) {
  EXPECT_FALSE(FabricConfig::topoopt(8)
                   .with_core_model(CoreModel::kAnalytic)
                   .validate()
                   .empty());
  EXPECT_THROW(Fabric::build(FabricConfig::rail_optimized(8).with_core_model(
                   CoreModel::kAnalytic)),
               std::invalid_argument);
  EXPECT_TRUE(FabricConfig::fat_tree(8)
                  .with_core_model(CoreModel::kAnalytic)
                  .validate()
                  .empty());
}

// --- Analytic core model (DESIGN.md §13). ------------------------------------

TEST(AnalyticCore, CollapsedFatTreeDropsCoreFromGraph) {
  const Fabric e = Fabric::build(base_config(FabricKind::kFatTree, 8));
  const Fabric a = Fabric::build(
      base_config(FabricKind::kFatTree, 8).with_core_model(CoreModel::kAnalytic));
  // 8 servers x 8 NICs x 2 directions; no uplinks, no core node.
  EXPECT_EQ(a.network().link_count(), 8u * 8u * 2u);
  EXPECT_GT(e.network().link_count(), a.network().link_count());
  EXPECT_EQ(e.network().node_count(), a.network().node_count() + 1);
  for (const auto& l : a.network().links())
    EXPECT_NE(a.network().node(l.dst).label, "core");
}

TEST(AnalyticCore, OversubscribedCoreKeepsUplinksButRoutesO1) {
  // At oversub > 1 the uplink can be a real bottleneck, so it stays in the
  // graph; route_analytic still produces the 4-link leaf-spine path without
  // a BFS.
  const Fabric f = Fabric::build(base_config(FabricKind::kOverSubFatTree, 8)
                                     .with_oversub(3.0)
                                     .with_core_model(CoreModel::kAnalytic));
  EXPECT_TRUE(f.analytic_core());
  const auto r = f.route_analytic(0, 7, 12345u);
  ASSERT_EQ(r.path.size(), 4u);
  EXPECT_EQ(r.extra_delay, 0);
  for (net::LinkId l : r.path) EXPECT_TRUE(f.network().link(l).up);
}

TEST(AnalyticCore, RouteShapesAndDelayCompensation) {
  const FabricConfig cfg =
      base_config(FabricKind::kFatTree, 8).with_core_model(CoreModel::kAnalytic);
  const Fabric f = Fabric::build(cfg);
  // Intra-rack (servers_per_rack = 2): two NIC links, no compensation.
  const auto intra = f.route_analytic(0, 1, 99u);
  ASSERT_EQ(intra.path.size(), 2u);
  EXPECT_EQ(intra.extra_delay, 0);
  // Inter-rack: two NIC links plus the two collapsed core hops as delay.
  const auto inter = f.route_analytic(0, 5, 99u);
  ASSERT_EQ(inter.path.size(), 2u);
  EXPECT_EQ(inter.extra_delay, 2 * cfg.link_delay);
  EXPECT_EQ(f.network().link(inter.path.front()).src, f.server_node(0));
  EXPECT_EQ(f.network().link(inter.path.back()).dst, f.server_node(5));
}

TEST(AnalyticCore, EcmpSpreadsAndPinsAcrossNics) {
  const Fabric f = Fabric::build(
      base_config(FabricKind::kFatTree, 8).with_core_model(CoreModel::kAnalytic));
  std::set<net::LinkId> first_links;
  for (std::uint64_t h = 0; h < 64; ++h)
    first_links.insert(f.route_analytic(0, 5, net::mix_hash(h + 1)).path.front());
  EXPECT_EQ(first_links.size(), 8u);  // all 8 NICs see traffic
  // Pinning is deterministic and wraps modulo the NIC count.
  for (int pin = 0; pin < 16; ++pin) {
    EXPECT_EQ(f.route_analytic(0, 5, 7u, pin).path.front(),
              f.route_analytic(0, 5, 991u, pin % 8).path.front());
  }
}

TEST(AnalyticCore, CircuitPreferredOverEpsLikeExplicitRouting) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8)
                       .with_region_servers(8)
                       .with_core_model(CoreModel::kAnalytic);
  Fabric f = Fabric::build(c);
  Matrix counts(8, 8, 0.0);
  counts(0, 1) = counts(1, 0) = 1;
  f.apply_circuits(0, counts);
  const auto direct = f.route_analytic(0, 1, 5u);
  ASSERT_EQ(direct.path.size(), 1u);  // single-hop circuit wins
  EXPECT_EQ(direct.path.front(), f.circuit_link(0, 0, 1));
  // No circuit for this pair: falls back to the 2-NIC-link EPS path.
  EXPECT_EQ(f.route_analytic(0, 2, 5u).path.size(), 2u);
}

TEST(AnalyticCore, DescribeEmitsCanonicalJson) {
  const Fabric f = Fabric::build(
      base_config(FabricKind::kFatTree, 8).with_core_model(CoreModel::kAnalytic));
  const std::string j = f.describe();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"core_collapsed\":true"), std::string::npos);
  EXPECT_NE(j.find("\"core_model\":\"analytic\""), std::string::npos);
  EXPECT_NE(j.find("\"n_servers\":8"), std::string::npos);
  // Keys are sorted (canonical field order), so the digest-stable text is
  // reproducible across field-registration order changes.
  const Fabric e = Fabric::build(base_config(FabricKind::kFatTree, 8));
  EXPECT_NE(e.describe(), j);
  EXPECT_NE(e.describe().find("\"core_collapsed\":false"), std::string::npos);
}

// --- Closed-form routing oracle (DESIGN.md §13). -----------------------------
//
// On the explicit core, route_analytic must equal net::EcmpRouter link for
// link for every ordered server pair, hashed and pinned, healthy and after
// failures.

void expect_closed_form_matches_bfs(const Fabric& f, const std::string& state) {
  ASSERT_TRUE(f.analytic_core());
  net::EcmpRouter bfs(f.network());
  int mismatches = 0;
  const auto check = [&](int s, int d, std::uint64_t hash, int pin) {
    const AnalyticRoute got = f.route_analytic(s, d, hash, pin);
    const auto want = bfs.route(f.server_node(s), f.server_node(d), hash, pin);
    if ((got.path != want || got.extra_delay != 0) && mismatches++ < 5)
      ADD_FAILURE() << to_string(f.config().kind) << " (" << state << "): " << s
                    << "->" << d << " hash " << hash << " pin " << pin;
  };
  for (int s = 0; s < f.n_servers(); ++s) {
    for (int d = 0; d < f.n_servers(); ++d) {
      if (s == d) continue;
      for (std::uint64_t h : {1ULL, 0x9E3779B97F4A7C15ULL, 424242ULL}) check(s, d, h, -1);
      for (int pin : {0, 3, 13}) check(s, d, 77u, pin);
    }
  }
  EXPECT_EQ(mismatches, 0) << to_string(f.config().kind) << " (" << state << ")";
}

void apply_failures(Fabric& f) {
  control::FailureManager failures(f);
  failures.apply({control::FailureScenario::Kind::kOneNic, 3});
  failures.apply({control::FailureScenario::Kind::kTwoNic, 10});
  failures.apply({control::FailureScenario::Kind::kServerDown, 40});
}

// Takes NIC `nic` of `server` down in both directions (a link failure).
void fail_nic(Fabric& f, int server, int nic) {
  net::Network& net = f.network();
  const net::NodeId node = f.server_node(server);
  const net::LinkId up = net.node(node).out_links[static_cast<std::size_t>(nic)];
  net.set_up(net.find_link(net.link(up).dst, node), false);
  net.set_up(up, false);
}

TEST(ClosedFormRouting, MatchesBfsHealthyAndAfterFailures) {
  // 64 servers: 32 racks of two, or two 32-server rail pods.
  for (const FabricConfig& cfg :
       {FabricConfig::fat_tree(64), FabricConfig::oversub_fat_tree(64, 3.0),
        FabricConfig::rail_optimized(64), FabricConfig::nvl72(64)}) {
    Fabric f = Fabric::build(cfg);
    expect_closed_form_matches_bfs(f, "healthy");
    apply_failures(f);
    expect_closed_form_matches_bfs(f, "failures");
  }
}

TEST(ClosedFormRouting, MatchesBfsOnMixNetWithCircuits) {
  for (const FabricConfig& cfg :
       {FabricConfig::mixnet(64).with_region_servers(8),
        FabricConfig::mixnet_optical_io(64).with_region_servers(8)}) {
    Fabric f = Fabric::build(cfg);
    for (int region = 0; region < f.n_regions(); ++region) {
      Matrix counts(8, 8, 0.0);
      for (std::size_t i = 0; i < 8; ++i) {
        const std::size_t j = (i + 1) % 8;
        counts(i, j) = counts(j, i) =
            1.0 + static_cast<double>((i + static_cast<std::size_t>(region)) % 2);
      }
      f.apply_circuits(region, counts);
    }
    expect_closed_form_matches_bfs(f, "circuits");
    f.set_region_circuits_up(1, false);
    expect_closed_form_matches_bfs(f, "region 1 dark");
    apply_failures(f);
    expect_closed_form_matches_bfs(f, "failures");
  }
}

TEST(ClosedFormRouting, MatchesBfsWithRailNicsDown) {
  Fabric f = Fabric::build(FabricConfig::rail_optimized(64));
  fail_nic(f, 5, 2);  // one end only: as src and as dst of every pair
  fail_nic(f, 6, 3);
  fail_nic(f, 7, 4);  // both ends of the 7<->8 pairs
  fail_nic(f, 8, 4);
  // Servers 9 and 10 (one pod) share no usable rail, so they meet at the
  // core; server 40 (the other pod) keeps only rail 7.
  for (int nic = 1; nic < 8; ++nic) fail_nic(f, 9, nic);
  for (int nic = 0; nic < 8; ++nic)
    if (nic != 1) fail_nic(f, 10, nic);
  for (int nic = 0; nic < 7; ++nic) fail_nic(f, 40, nic);
  EXPECT_EQ(f.route_analytic(9, 10, 1u).path.size(), 4u);
  expect_closed_form_matches_bfs(f, "rail NICs down");
}

TEST(ClosedFormRouting, TopoOptHasNoClosedForm) {
  const Fabric f = Fabric::build(FabricConfig::topoopt(8));
  EXPECT_FALSE(f.analytic_core());
  EXPECT_THROW(f.route_analytic(0, 1, 7u), std::logic_error);
}

}  // namespace
}  // namespace mixnet::topo
