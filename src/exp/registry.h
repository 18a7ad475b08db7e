// ScenarioRegistry: every paper figure/table/ablation as a named, runnable
// scenario (DESIGN.md §7). `mixnet-bench --list` enumerates it and
// `mixnet-bench --run <name>` runs one. The per-scenario figure-vs-paper
// shape comparison is recorded in EXPERIMENTS.md.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exp/context.h"
#include "exp/result_table.h"

namespace mixnet::exp {

struct ScenarioInfo {
  std::string name;     ///< registry/CLI name, e.g. "fig13"
  std::string figure;   ///< paper artifact, e.g. "Figure 13"
  std::string title;    ///< one-line description
  std::function<ScenarioResult(const RunContext&)> run;
  /// Optional structural paper-shape validation (`mixnet-bench --check`,
  /// run by the figure pass): returns human-readable violations, empty
  /// when the EXPERIMENTS.md shape invariants hold. Checks assert orderings
  /// and coarse ratios, never exact values, so they survive draw-sequence
  /// re-baselines that keep the figure's shape.
  std::function<std::vector<std::string>(const ScenarioResult&)> check = {};
  /// Scenario family ("traffic", "training", "cost", "hardware", "serve",
  /// "fidelity"); exposed by `--list --format json` so tooling enumerates
  /// groups without name-prefix hacks.
  std::string group;
  /// True when the scenario sets TrainingConfig::backend per point (e.g. the
  /// fidelity ladder sweeps it as an axis). `mixnet-bench --backend` refuses
  /// to override such scenarios instead of silently un-pinning them.
  bool pins_backend = false;
};

class ScenarioRegistry {
 public:
  /// Throws std::invalid_argument on duplicate names.
  void add(ScenarioInfo info);

  const ScenarioInfo* find(const std::string& name) const;
  const std::vector<ScenarioInfo>& scenarios() const { return scenarios_; }

  /// The process-wide registry holding every paper scenario.
  static const ScenarioRegistry& paper();

 private:
  std::vector<ScenarioInfo> scenarios_;
};

// Registration units (one per scenario family; see scenarios_*.cc).
void register_traffic_scenarios(ScenarioRegistry& r);   // fig02/04/05/19
void register_training_scenarios(ScenarioRegistry& r);  // fig03/10/12/13/14/16/25/26/26-xl/27/28
void register_cost_scenarios(ScenarioRegistry& r);      // fig11/24 + tables
void register_hardware_scenarios(ScenarioRegistry& r);  // fig21 + ablation
void register_serve_scenarios(ScenarioRegistry& r);     // serve-*
void register_fidelity_scenarios(ScenarioRegistry& r);  // fidelity-ladder

/// Machine-readable listing (`mixnet-bench --list --format json`):
/// {"scenarios":[{"name":..,"figure":..,"title":..,"group":..,
/// "has_check":..,"pins_backend":..},...],"fabrics":[{"kind":..,
/// "core_model":..,"describe":{Fabric::describe() canonical JSON}},...]}
/// plus a final newline. Fabric entries cover every topology preset at a
/// reference size, including analytic-core variants where supported.
std::string list_scenarios_json(const ScenarioRegistry& registry);

}  // namespace mixnet::exp
