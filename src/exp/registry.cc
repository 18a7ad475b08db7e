#include "exp/registry.h"

#include <stdexcept>

#include "topo/fabric.h"

namespace mixnet::exp {

void ScenarioRegistry::add(ScenarioInfo info) {
  if (find(info.name))
    throw std::invalid_argument("duplicate scenario: " + info.name);
  scenarios_.push_back(std::move(info));
}

const ScenarioInfo* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& s : scenarios_)
    if (s.name == name) return &s;
  return nullptr;
}

const ScenarioRegistry& ScenarioRegistry::paper() {
  static const ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    register_traffic_scenarios(*r);
    register_training_scenarios(*r);
    register_cost_scenarios(*r);
    register_hardware_scenarios(*r);
    register_serve_scenarios(*r);
    register_fidelity_scenarios(*r);
    return r;
  }();
  return *registry;
}

std::string list_scenarios_json(const ScenarioRegistry& registry) {
  std::string out = "{\"scenarios\":[";
  bool first = true;
  for (const auto& s : registry.scenarios()) {
    if (!first) out += ',';
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"figure\":\"" +
           json_escape(s.figure) + "\",\"title\":\"" + json_escape(s.title) +
           "\",\"group\":\"" + json_escape(s.group) +
           "\",\"has_check\":" + (s.check ? "true" : "false") +
           ",\"pins_backend\":" + (s.pins_backend ? "true" : "false") + "}";
    first = false;
  }
  out += "],\"fabrics\":[";
  // One entry per topology preset at a reference 64-server size, plus an
  // analytic-core variant for every kind that supports one; `describe` is
  // Fabric::describe()'s canonical JSON, embedded verbatim.
  constexpr int kRefServers = 64;
  const topo::FabricKind kinds[] = {
      topo::FabricKind::kFatTree,       topo::FabricKind::kOverSubFatTree,
      topo::FabricKind::kRailOptimized, topo::FabricKind::kTopoOpt,
      topo::FabricKind::kMixNet,        topo::FabricKind::kNvl72,
      topo::FabricKind::kMixNetOpticalIO};
  first = true;
  for (topo::FabricKind k : kinds) {
    for (topo::CoreModel m :
         {topo::CoreModel::kExplicit, topo::CoreModel::kAnalytic}) {
      topo::FabricConfig fc =
          topo::FabricConfig::preset(k, kRefServers).with_core_model(m);
      if (!fc.validate().empty()) continue;  // kind has no analytic core
      if (!first) out += ',';
      out += "{\"kind\":\"" + json_escape(topo::to_string(k)) +
             "\",\"core_model\":\"" + json_escape(topo::to_string(m)) +
             "\",\"describe\":" + topo::Fabric::build(fc).describe() + "}";
      first = false;
    }
  }
  return out + "]}\n";
}

}  // namespace mixnet::exp
