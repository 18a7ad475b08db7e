// Optical-hardware profiling and design-choice ablations (Figs. 21-23, the
// ablation suite). Ported verbatim from the historical bench harnesses --
// the three Fig. 21-23 sections deliberately share one Rng stream, so the
// sampled values match the pre-port binaries. See EXPERIMENTS.md.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "control/controller.h"
#include "exp/registry.h"
#include "exp/result_table.h"
#include "ocs/algorithm.h"
#include "ocs/hardware.h"
#include "sim/phase_runner.h"
#include "topo/fabric.h"

namespace mixnet::exp {
namespace {

// ---------------------------------------------------------------------------
// Figures 21-23 (Appendix C): prototype optical-hardware profiling --
// reconfiguration delay CDF, control timeline, NIC activation CDF.

ScenarioResult run_fig21(const RunContext&) {
  Rng rng(2025);

  ScenarioResult out;
  out.name = "fig21";
  ResultTable t21("Figure 21", "OCS reconfiguration delay (ms)",
                  {"pairs", "mean", "p50", "p90", "p99", "max"}, 12);
  for (int pairs : {1, 4, 16}) {
    std::vector<double> xs(20000);
    for (auto& x : xs) x = ns_to_ms(ocs::sample_reconfig_delay(pairs, rng));
    t21.add_row({std::to_string(pairs), Cell::num(mean(xs), 2),
                 Cell::num(percentile(xs, 0.5), 2), Cell::num(percentile(xs, 0.9), 2),
                 Cell::num(percentile(xs, 0.99), 2),
                 Cell::num(percentile(xs, 1.0), 2)});
  }
  out.tables.push_back(std::move(t21));

  ResultTable t22("Figure 22", "One OCS control operation timeline (ms)",
                  {"segment", "mean", "share"}, 22);
  std::vector<double> cmd, sw, xcvr, nic, total;
  for (int i = 0; i < 5000; ++i) {
    const auto t = ocs::sample_control_timeline(4, rng);
    cmd.push_back(ns_to_ms(t.command));
    sw.push_back(ns_to_ms(t.ocs_reconfig));
    xcvr.push_back(ns_to_ms(t.transceiver_init));
    nic.push_back(ns_to_ms(t.nic_init));
    total.push_back(ns_to_ms(t.total()));
  }
  const double tot = mean(total);
  t22.add_row({"TL1 command", Cell::num(mean(cmd), 1),
               Cell::num(100 * mean(cmd) / tot, 1, "", "%")});
  t22.add_row({"OCS reconfiguration", Cell::num(mean(sw), 1),
               Cell::num(100 * mean(sw) / tot, 1, "", "%")});
  t22.add_row({"Transceiver init", Cell::num(mean(xcvr), 1),
               Cell::num(100 * mean(xcvr) / tot, 1, "", "%")});
  t22.add_row({"NIC init", Cell::num(mean(nic), 1),
               Cell::num(100 * mean(nic) / tot, 1, "", "%")});
  t22.add_row({"total", Cell::num(tot, 1), "100%"});
  out.tables.push_back(std::move(t22));

  ResultTable t23("Figure 23", "NIC activation time after reconfiguration (s)",
                  {"mean", "p50", "p99"}, 12);
  std::vector<double> act(20000);
  for (auto& x : act) x = ns_to_sec(ocs::sample_nic_activation(rng));
  t23.add_row({Cell::num(mean(act), 2), Cell::num(percentile(act, 0.5), 2),
               Cell::num(percentile(act, 0.99), 2)});
  out.tables.push_back(std::move(t23));
  out.note =
      "Paper: reconfig means 41.4/42.4/46.8 ms (1/4/16 pairs), 99% <70 ms;\n"
      "turnaround dominated by transceiver+NIC init; NIC activation mean\n"
      "5.67 s, p99 6.33 s (excluded from training time, as in §C).";
  return out;
}

// ---------------------------------------------------------------------------
// Ablations of MixNet design choices called out in DESIGN.md: circuit policy
// vs a uniform circulant, pure-optical allocator variants, and
// skip-identical reconfiguration.

topo::FabricConfig region8() {
  return topo::FabricConfig::mixnet(8).with_region_servers(8).with_nic_gbps(
      100.0);
}

Matrix skewed_demand() {
  Matrix d(8, 8, mib(2));
  for (std::size_t i = 0; i < 8; ++i) d(i, i) = 0.0;
  d(0, 1) = d(1, 0) = mib(400);
  d(2, 5) = d(5, 2) = mib(300);
  d(3, 6) = d(6, 3) = mib(150);
  return d;
}

Matrix uniform_demand() {
  Matrix d(8, 8, mib(40));
  for (std::size_t i = 0; i < 8; ++i) d(i, i) = 0.0;
  return d;
}

double a2a_ms(const Matrix& demand, control::CircuitPolicy policy) {
  auto fabric = topo::Fabric::build(region8());
  control::ControllerConfig cc;
  cc.policy = policy;
  control::TopologyController ctrl(fabric, 0, cc);
  ctrl.prepare(demand, ms_to_ns(1000));
  sim::PhaseRunner pr(fabric);
  return ns_to_ms(pr.ep_all_to_all({0, 1, 2, 3, 4, 5, 6, 7}, demand));
}

/// Completion-time bound of a pure-optical allocation: unserved pairs are
/// infinite (reported as capped sentinel), served pairs d/(k*100G).
double optical_bottleneck_ms(const Matrix& demand, const ocs::OcsTopology& topo) {
  const Matrix sym = ocs::symmetrize_demand(demand);
  double worst = 0.0;
  bool unserved = false;
  for (std::size_t i = 0; i < sym.rows(); ++i)
    for (std::size_t j = i + 1; j < sym.cols(); ++j) {
      if (sym(i, j) <= 0.0) continue;
      if (topo.counts(i, j) <= 0.0)
        unserved = true;
      else
        worst = std::max(worst, sym(i, j) / (topo.counts(i, j) * gbps(100)));
    }
  return unserved ? -1.0 : worst * 1e3;
}

ScenarioResult run_ablation(const RunContext&) {
  ScenarioResult out;
  out.name = "ablation";

  ResultTable t1("Ablation 1", "Circuit policy on MixNet, a2a time (ms)",
                 {"demand", "Algorithm 1 (hybrid)", "uniform circulant"}, 24);
  for (const auto& [name, d] :
       std::vector<std::pair<std::string, Matrix>>{{"skewed", skewed_demand()},
                                                   {"near-uniform", uniform_demand()}}) {
    t1.add_row({name, Cell::num(a2a_ms(d, control::CircuitPolicy::kGreedy), 2),
                Cell::num(a2a_ms(d, control::CircuitPolicy::kUniform), 2)});
  }
  out.tables.push_back(std::move(t1));

  ResultTable t2("Ablation 2", "Pure-optical allocator variants (no EPS fallback)",
                 {"variant", "circuits", "bottleneck (ms)"}, 26);
  const Matrix dense = uniform_demand();
  {
    ocs::ReconfigureOptions strict;
    strict.work_conserving = false;
    strict.circuit_bps = gbps(100);
    const auto t = ocs::reconfigure_ocs(dense, 6, strict);
    const double b = optical_bottleneck_ms(dense, t);
    t2.add_row({"strict pseudocode", std::to_string(t.total_circuits),
                b < 0 ? Cell("unserved pairs!") : Cell::num(b, 2)});
  }
  {
    ocs::ReconfigureOptions wc;
    wc.circuit_bps = gbps(100);
    const auto t = ocs::reconfigure_ocs(dense, 6, wc);
    const double b = optical_bottleneck_ms(dense, t);
    t2.add_row({"work-conserving", std::to_string(t.total_circuits),
                b < 0 ? Cell("unserved pairs!") : Cell::num(b, 2)});
  }
  {
    // Demand floor on a skewed matrix: without it, coverage of negligible
    // pairs starves the hot pair of parallel circuits.
    for (double floor : {0.0, 0.05}) {
      ocs::ReconfigureOptions o;
      o.circuit_bps = gbps(100);
      o.demand_floor_frac = floor;
      const auto t = ocs::reconfigure_ocs(skewed_demand(), 6, o);
      t2.add_row({"floor=" + fmt(floor, 2) + " (skewed)",
                  std::to_string(t.total_circuits),
                  "hot pair circuits: " + fmt(t.counts(0, 1), 0)});
    }
  }
  out.tables.push_back(std::move(t2));

  ResultTable t3("Ablation 3",
                 "Skip-identical reconfiguration (stable demand, 10 visits)",
                 {"skip_identical", "reconfigs", "blocked (ms)"}, 18);
  for (bool skip : {true, false}) {
    auto fabric = topo::Fabric::build(region8());
    control::ControllerConfig cc;
    cc.skip_identical = skip;
    cc.reconfig_delay = ms_to_ns(25);
    control::TopologyController ctrl(fabric, 0, cc);
    const Matrix d = skewed_demand();
    for (int visit = 0; visit < 10; ++visit) ctrl.prepare(d, ms_to_ns(10));
    t3.add_row({skip ? "on" : "off", std::to_string(ctrl.reconfig_count()),
                Cell::num(ns_to_ms(ctrl.total_blocked()), 1)});
  }
  out.tables.push_back(std::move(t3));
  out.note =
      "Hybrid-aware Algorithm 1 wins on skewed demand and never loses on\n"
      "uniform demand; on pure-optical fabrics the strict pseudocode\n"
      "strands ports and the demand floor is what concentrates circuits\n"
      "on hot pairs.";
  return out;
}

}  // namespace

void register_hardware_scenarios(ScenarioRegistry& r) {
  r.add({"fig21", "Figures 21-23",
         "OCS reconfiguration delay, control timeline, NIC activation",
         run_fig21, {}, "hardware"});
  r.add({"ablation", "Ablations 1-3",
         "Circuit policy, allocator variants, skip-identical reconfiguration",
         run_ablation, {}, "hardware"});
}

}  // namespace mixnet::exp
