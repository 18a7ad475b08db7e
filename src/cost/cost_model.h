// Networking cost model (§7.2, §D.2/D.3, Table 4).
//
// Follows the TopoOpt costing methodology the paper reuses: count NICs,
// switch ports actually used, transceivers (both ends of every optical
// link), OCS ports, patch-panel ports, and fibers. Component prices come
// from Table 4; fibers are priced flat (the paper follows TopoOpt here as
// well). Short-reach host-to-leaf EPS links can alternatively use AOC or DAC
// cables instead of transceiver+fiber pairs (§D.3, Fig. 24).
//
// Port-count formulas (N = total NICs toward the respective fabric):
//   Fat-tree (1:1, 3 tiers)      : leaf N down + N up, agg N + N, core N
//                                  => 5N switch ports, 3N optical links.
//   Over-subscribed (r:1 at leaf): leaf N + N/r, then a 1:1 core above
//                                  => N + 4N/r ports, N + 2N/r links.
//   Rail-optimized               : rail switches N + N up into a 1:1 spine
//                                  => 4.5N ports (rail locality trims the
//                                  agg tier), 2.75N links.
//   TopoOpt                      : N patch-panel ports; beyond ~1K GPUs a
//                                  second patch tier doubles ports and
//                                  requires long-reach (1.5x) transceivers.
//   MixNet                       : EPS fat-tree over the 2 EPS NICs/server
//                                  + one OCS port and transceiver pair per
//                                  optical NIC.
#pragma once

#include <string>

#include "topo/fabric.h"

namespace mixnet::cost {

/// Table 4 rows (USD).
struct ComponentPrices {
  double transceiver = 0.0;
  double nic = 0.0;
  double eps_port = 0.0;   ///< electrical switch, per port
  double ocs_port = 0.0;
  double patch_port = 0.0;
  double fiber = 50.0;     ///< flat per-fiber cost (TopoOpt methodology)
};

/// Prices for 100/200/400/800 Gbps links (asserts on other values).
ComponentPrices prices_for(int gbps);

enum class EpsLinkType { kTransceiverFiber, kAoc, kDac };
const char* to_string(EpsLinkType t);

/// Price of one short-reach EPS cable assembly for AOC/DAC options (§D.3).
double short_reach_cable_price(int gbps, EpsLinkType t);

struct CostBreakdown {
  double nics = 0.0;
  double transceivers = 0.0;
  double eps_ports = 0.0;
  double ocs_ports = 0.0;
  double patch_ports = 0.0;
  double fibers_cables = 0.0;
  double total() const {
    return nics + transceivers + eps_ports + ocs_ports + patch_ports + fibers_cables;
  }
};

/// Networking cost of a cluster of `n_servers` 8-GPU servers with
/// `nics_per_server` NICs of `gbps` each, wired as `kind`.
CostBreakdown fabric_cost(topo::FabricKind kind, int n_servers, int nics_per_server,
                          int gbps, EpsLinkType eps_link = EpsLinkType::kTransceiverFiber,
                          int mixnet_eps_nics = 2);

/// Convenience: total in millions of dollars (Fig. 11 y-axis).
double fabric_cost_musd(topo::FabricKind kind, int n_gpus, int gbps,
                        EpsLinkType eps_link = EpsLinkType::kTransceiverFiber);

/// Fig. 27 methodology ("we reduce the bandwidth of each electronic port
/// when increasing their number, to ensure a cost-equivalent comparison"):
/// the electrical side's total cost -- and hence, to first order, its total
/// bandwidth -- is pinned to the default MixNet split (2 EPS NICs at
/// `gbps_base`); as alpha shrinks, the freed NIC slots become additional,
/// proportionally slower electronic ports. Returns per-EPS-NIC Gbps.
double cost_equivalent_eps_gbps(int alpha, int nics, int gbps_base);

}  // namespace mixnet::cost
