// Failure drill (§5.4): inject each failure class into a MixNet cluster
// training Mixtral 8x22B and watch the system work around it --
// EPS/OCS mutual fallback, backup-GPU remapping, and EPS-only replacement
// nodes excluded from the regional OCS.
//
// Each drill builds its own TrainingSimulator, runs one iteration, and then
// counts the circuits left on the live fabric.
#include <cstdio>
#include <utility>
#include <vector>

#include "sim/training_sim.h"

using namespace mixnet;

int main() {
  using Kind = control::FailureScenario::Kind;
  const std::vector<std::pair<Kind, const char*>> drills = {
      {Kind::kNone, "baseline (no failure)"},
      {Kind::kOneNic, "one EPS NIC fails"},
      {Kind::kTwoNic, "both EPS NICs fail (optical detour via peer)"},
      {Kind::kOneGpu, "one GPU fails (backup GPU, TP over scale-out)"},
      {Kind::kServerDown, "whole server replaced (EPS-only backup node)"},
  };

  std::printf("Failure drill: Mixtral 8x22B on MixNet, 400 Gbps\n\n");
  std::printf("%-50s %-10s %-10s %-10s\n", "scenario", "iter (s)", "overhead",
              "circuits");

  double baseline = 0.0;  // the kNone row
  for (const auto& [kind, label] : drills) {
    sim::TrainingConfig cfg;
    cfg.model = moe::mixtral_8x22b();
    cfg.fabric_kind = topo::FabricKind::kMixNet;
    cfg.nic_gbps = 400.0;
    cfg.failure = {kind, 0};
    sim::TrainingSimulator simulator(cfg);
    const double t = ns_to_sec(simulator.run_iteration().total);
    if (kind == Kind::kNone) baseline = t;
    // Circuits still terminating at server 0's region after recovery.
    const topo::Fabric& fabric = simulator.fabric();
    const double circuits = fabric.circuit_counts(fabric.region_of(0)).sum() / 2;
    std::printf("%-50s %-10.2f +%-9.1f%% %-10.0f\n", label, t,
                100.0 * (t - baseline) / baseline, circuits);
  }
  std::printf("\nNote how the EPS-only replacement node (last row) still trains --\n"
              "its EP traffic rides the two EPS NICs while the regional\n"
              "controller excludes it from circuit allocation.\n");
  return 0;
}
