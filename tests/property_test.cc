// Property-based tests: invariants that must hold for arbitrary (seeded)
// random instances, checked against independent reference implementations.
//
//   * FlowSim rates never violate link capacities and are max-min fair
//     (cross-checked against a standalone water-filling solver).
//   * Algorithm 1 (hybrid variant) is close to the brute-force optimal
//     circuit allocation on exhaustively-enumerable instances.
//   * The 5-step all-to-all conserves bytes and never beats the fabric's
//     bisection-time lower bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "collective/engine.h"
#include "common/rng.h"
#include "rng_util.h"
#include "eventsim/simulator.h"
#include "net/flowsim.h"
#include "net/routing.h"
#include "ocs/algorithm.h"
#include "topo/fabric.h"

namespace mixnet {
namespace {

// ---------------------------------------------------------------------------
// Reference max-min water-filling over explicit (flow -> links) incidence.
std::vector<double> reference_max_min(const std::vector<std::vector<int>>& flow_links,
                                      std::vector<double> cap) {
  const std::size_t nf = flow_links.size();
  std::vector<double> rate(nf, -1.0);
  std::vector<int> active_count(cap.size(), 0);
  for (const auto& fl : flow_links)
    for (int l : fl) ++active_count[static_cast<std::size_t>(l)];
  std::size_t remaining = nf;
  while (remaining > 0) {
    double min_share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < cap.size(); ++l)
      if (active_count[l] > 0)
        min_share = std::min(min_share, cap[l] / active_count[l]);
    // Freeze flows crossing a bottleneck link.
    for (std::size_t f = 0; f < nf; ++f) {
      if (rate[f] >= 0.0) continue;
      bool bottled = false;
      for (int l : flow_links[f])
        if (active_count[static_cast<std::size_t>(l)] > 0 &&
            cap[static_cast<std::size_t>(l)] /
                    active_count[static_cast<std::size_t>(l)] <=
                min_share * (1 + 1e-12))
          bottled = true;
      if (!bottled) continue;
      rate[f] = min_share;
      for (int l : flow_links[f]) {
        cap[static_cast<std::size_t>(l)] -= min_share;
        --active_count[static_cast<std::size_t>(l)];
      }
      --remaining;
    }
  }
  return rate;
}

class FlowSimFairness : public ::testing::TestWithParam<int> {};

TEST_P(FlowSimFairness, MatchesReferenceWaterFilling) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  // Random star-ish network: S sources, one switch layer, D sinks.
  net::Network net;
  eventsim::Simulator sim;
  const int n_src = 3 + static_cast<int>(testing_util::uniform_below(rng, 4));
  const int n_dst = 2 + static_cast<int>(testing_util::uniform_below(rng, 3));
  net::NodeId sw = net.add_node(net::NodeKind::kSwitch);
  std::vector<net::NodeId> srcs, dsts;
  std::vector<net::LinkId> up, down;
  for (int i = 0; i < n_src; ++i) {
    srcs.push_back(net.add_node(net::NodeKind::kServer));
    up.push_back(net.add_link(srcs.back(), sw, gbps(rng.uniform(50, 200)), 0));
  }
  for (int i = 0; i < n_dst; ++i) {
    dsts.push_back(net.add_node(net::NodeKind::kServer));
    down.push_back(net.add_link(sw, dsts.back(), gbps(rng.uniform(50, 200)), 0));
  }
  // Random long-lived flows.
  net::FlowSim fs(sim, net);
  std::vector<std::vector<int>> flow_links;
  std::vector<net::FlowId> ids;
  const int n_flows = 4 + static_cast<int>(testing_util::uniform_below(rng, 8));
  for (int f = 0; f < n_flows; ++f) {
    const auto s =
        testing_util::uniform_below(rng, static_cast<std::uint64_t>(n_src));
    const auto d =
        testing_util::uniform_below(rng, static_cast<std::uint64_t>(n_dst));
    net::FlowSpec spec;
    spec.src = srcs[s];
    spec.dst = dsts[d];
    spec.size = gib(1);  // long-lived: rates sampled at t=0
    spec.path = {up[s], down[d]};
    flow_links.push_back({static_cast<int>(up[s]), static_cast<int>(down[d])});
    ids.push_back(fs.start_flow(std::move(spec)));
  }
  std::vector<double> cap(net.link_count());
  for (std::size_t l = 0; l < cap.size(); ++l)
    cap[l] = net.link(static_cast<net::LinkId>(l)).capacity;
  const auto expected = reference_max_min(flow_links, cap);
  for (std::size_t f = 0; f < ids.size(); ++f) {
    EXPECT_NEAR(fs.flow_rate(ids[f]) / expected[f], 1.0, 1e-6) << "flow " << f;
  }
  // Capacity compliance on every link.
  for (std::size_t l = 0; l < cap.size(); ++l) {
    double sum = 0.0;
    for (std::size_t f = 0; f < ids.size(); ++f)
      for (int fl : flow_links[f])
        if (static_cast<std::size_t>(fl) == l) sum += fs.flow_rate(ids[f]);
    EXPECT_LE(sum, cap[l] * (1 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSimFairness, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Algorithm 1 (hybrid) vs brute-force optimum on tiny instances.
//
// Objective: minimize the completion-time bound
//   max( max over wired pairs d/(k*circuit),
//        max over servers residual_eps_load/eps_rate )
double allocation_objective(const Matrix& sym, const Matrix& counts, double circuit,
                            double eps_rate) {
  const std::size_t n = sym.rows();
  std::vector<double> resid(n, 0.0);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      if (sym(i, j) <= 0.0) continue;
      if (counts(i, j) > 0.0) {
        worst = std::max(worst, sym(i, j) / (counts(i, j) * circuit));
      } else {
        resid[i] += sym(i, j);
        resid[j] += sym(i, j);
      }
    }
  for (std::size_t v = 0; v < n; ++v) worst = std::max(worst, resid[v] / eps_rate);
  return worst;
}

double brute_force_best(const Matrix& sym, int alpha, double circuit,
                        double eps_rate) {
  // Enumerate circuit counts per pair (0..alpha) subject to degree limits.
  const std::size_t n = sym.rows();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  Matrix counts(n, n, 0.0);
  std::vector<int> used(n, 0);
  double best = std::numeric_limits<double>::infinity();
  std::function<void(std::size_t)> rec = [&](std::size_t p) {
    if (p == pairs.size()) {
      best = std::min(best, allocation_objective(sym, counts, circuit, eps_rate));
      return;
    }
    const auto [i, j] = pairs[p];
    for (int k = 0; k <= alpha; ++k) {
      if (used[i] + k > alpha || used[j] + k > alpha) break;
      counts(i, j) = counts(j, i) = k;
      used[i] += k;
      used[j] += k;
      rec(p + 1);
      used[i] -= k;
      used[j] -= k;
      counts(i, j) = counts(j, i) = 0;
    }
  };
  rec(0);
  return best;
}

class GreedyVsOptimal : public ::testing::TestWithParam<int> {};

TEST_P(GreedyVsOptimal, WithinFactorOfBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const std::size_t n = 3;  // brute-force tractable
  const int alpha = 3;
  const double circuit = 100.0, eps_rate = 150.0;
  Matrix d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && rng.uniform() < 0.8) d(i, j) = rng.uniform(1.0, 1000.0);

  ocs::ReconfigureOptions opts;
  opts.circuit_bps = circuit;
  opts.eps_fallback_bps = eps_rate;
  opts.demand_floor_frac = 0.0;  // compare pure objectives
  const auto greedy = ocs::reconfigure_ocs(d, alpha, opts);
  const Matrix sym = ocs::symmetrize_demand(d);
  const double g = allocation_objective(sym, greedy.counts, circuit, eps_rate);
  const double opt = brute_force_best(sym, alpha, circuit, eps_rate);
  EXPECT_LE(g, opt * 2.0 + 1e-9) << "greedy " << g << " vs optimal " << opt;
  EXPECT_GE(g, opt - 1e-9);  // cannot beat the optimum
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyVsOptimal, ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// Collective lower bounds: the all-to-all can never finish faster than the
// busiest server's egress/ingress at full NIC bandwidth.
class AllToAllLowerBound : public ::testing::TestWithParam<int> {};

TEST_P(AllToAllLowerBound, NeverBeatsEgressBound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
  auto fabric = topo::Fabric::build(
      topo::FabricConfig::fat_tree(4).with_nic_gbps(100.0));
  eventsim::Simulator sim;
  net::FlowSim flows(sim, fabric.network());
  net::EcmpRouter router(fabric.network());
  collective::Engine engine(sim, fabric, flows, router, {});

  Matrix bytes(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      if (i != j) bytes(i, j) = mib(rng.uniform(1.0, 64.0));
  TimeNs done = -1;
  engine.all_to_all_direct({0, 1, 2, 3}, bytes,
                           [&](TimeNs t) { done = t; });
  sim.run();
  ASSERT_GT(done, 0);
  double bound_bytes = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    double out = 0.0, in = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;
      out += bytes(i, j);
      in += bytes(j, i);
    }
    bound_bytes = std::max({bound_bytes, out, in});
  }
  const double lower = bound_bytes / (8.0 * gbps(100));
  EXPECT_GE(ns_to_sec(done), lower * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllToAllLowerBound, ::testing::Range(1, 9));

}  // namespace
}  // namespace mixnet
