#include "control/failures.h"

#include <cassert>

namespace mixnet::control {

FailureManager::FailureManager(topo::Fabric& fabric) : fabric_(fabric) {
  excluded_.assign(static_cast<std::size_t>(fabric_.n_servers()), false);
}

void FailureManager::fail_eps_nics(int server, int count) {
  // EPS NIC links are the duplex pairs from the server node toward a switch.
  const net::NodeId node = fabric_.server_node(server);
  auto& net = fabric_.network();
  int failed = 0;
  for (net::LinkId lid : net.node(node).out_links) {
    if (failed >= count) break;
    const auto& l = net.link(lid);
    if (net.node(l.dst).kind != net::NodeKind::kSwitch) continue;
    if (!l.up) continue;
    net.set_up(lid, false);
    // Take the reverse direction down as well (link-level failure).
    for (net::LinkId rid : net.node(l.dst).out_links) {
      if (net.link(rid).dst == node && net.is_up(rid)) {
        net.set_up(rid, false);
        break;
      }
    }
    ++failed;
  }
}

void FailureManager::apply(const FailureScenario& scenario) {
  switch (scenario.kind) {
    case FailureScenario::Kind::kNone:
      return;
    case FailureScenario::Kind::kOneNic:
      fail_eps_nics(scenario.server, 1);
      return;
    case FailureScenario::Kind::kTwoNic: {
      fail_eps_nics(scenario.server, 2);
      // Detour EPS traffic of this server through the next server in its
      // region (optical hop first, then the peer's EPS NICs).
      if (fabric_.has_circuits()) {
        const int region = fabric_.region_of(scenario.server);
        const auto& members = fabric_.region_servers(region);
        for (std::size_t i = 0; i < members.size(); ++i) {
          if (members[i] == scenario.server) {
            const int relay = members[(i + 1) % members.size()];
            if (relay != scenario.server)
              relays_.push_back({scenario.server, -1, relay});
            break;
          }
        }
      }
      return;
    }
    case FailureScenario::Kind::kOneGpu:
      tp_over_scale_out_ = true;
      return;
    case FailureScenario::Kind::kServerDown:
      // Replacement node is EPS-only: exclude from OCS allocations.
      excluded_[static_cast<std::size_t>(scenario.server)] = true;
      return;
  }
}

}  // namespace mixnet::control
