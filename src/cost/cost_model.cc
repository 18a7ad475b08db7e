#include "cost/cost_model.h"

#include <cassert>
#include <stdexcept>

namespace mixnet::cost {

ComponentPrices prices_for(int gbps) {
  ComponentPrices p;
  switch (gbps) {
    case 100: p.transceiver = 99;   p.nic = 659;  p.eps_port = 187;  break;
    case 200: p.transceiver = 239;  p.nic = 1079; p.eps_port = 374;  break;
    case 400: p.transceiver = 659;  p.nic = 1499; p.eps_port = 1090; break;
    case 800: p.transceiver = 1399; p.nic = 2248; p.eps_port = 1400; break;
    default: throw std::invalid_argument("unsupported link bandwidth");
  }
  p.ocs_port = 520;    // Polatis, bandwidth-agnostic (layer 1)
  p.patch_port = 100;  // Telescent
  return p;
}

const char* to_string(EpsLinkType t) {
  switch (t) {
    case EpsLinkType::kTransceiverFiber: return "Transceiver-Fiber";
    case EpsLinkType::kAoc: return "AOC-10m";
    case EpsLinkType::kDac: return "DAC-3m";
  }
  return "?";
}

double short_reach_cable_price(int gbps, EpsLinkType t) {
  // Street prices for 10 m AOC / 3 m DAC assemblies; replaces two
  // transceivers + one fiber on a host-to-leaf link.
  switch (t) {
    case EpsLinkType::kTransceiverFiber: return 0.0;  // unused
    case EpsLinkType::kAoc:
      switch (gbps) {
        case 100: return 140; case 200: return 320;
        case 400: return 750; default: return 1500;
      }
    case EpsLinkType::kDac:
      switch (gbps) {
        case 100: return 55; case 200: return 110;
        case 400: return 220; default: return 440;
      }
  }
  return 0.0;
}

namespace {

/// Add a packet-switched clos over `n` endpoint NICs with leaf
/// over-subscription `r`. `n_short_links` of the links are host-to-leaf and
/// eligible for AOC/DAC; the rest are switch-to-switch (always optical).
void add_eps_clos(CostBreakdown& c, const ComponentPrices& p, double n, double r,
                  int gbps, EpsLinkType eps_link, bool rail_style) {
  double ports, links_long;
  if (rail_style) {
    // Rail switches: n down; 1:1 spine above, but same-rail locality removes
    // the middle aggregation tier for intra-pod traffic.
    ports = 4.5 * n;
    links_long = 1.75 * n;
  } else {
    // leaf: n + n/r; agg: n/r + n/r; core: n/r.
    ports = n + 4.0 * n / r;
    links_long = 2.0 * n / r;  // leaf-agg + agg-core
  }
  c.eps_ports += ports * p.eps_port;
  // Host-to-leaf links: n of them.
  if (eps_link == EpsLinkType::kTransceiverFiber) {
    c.transceivers += 2.0 * n * p.transceiver;
    c.fibers_cables += n * p.fiber;
  } else {
    c.fibers_cables += n * short_reach_cable_price(gbps, eps_link);
  }
  // Switch-to-switch links: always transceiver + fiber.
  c.transceivers += 2.0 * links_long * p.transceiver;
  c.fibers_cables += links_long * p.fiber;
}

}  // namespace

CostBreakdown fabric_cost(topo::FabricKind kind, int n_servers, int nics_per_server,
                          int gbps, EpsLinkType eps_link, int mixnet_eps_nics) {
  const ComponentPrices p = prices_for(gbps);
  CostBreakdown c;
  const double n_total = static_cast<double>(n_servers) * nics_per_server;
  c.nics = n_total * p.nic;

  switch (kind) {
    case topo::FabricKind::kFatTree:
      add_eps_clos(c, p, n_total, 1.0, gbps, eps_link, false);
      break;
    case topo::FabricKind::kOverSubFatTree:
      add_eps_clos(c, p, n_total, 3.0, gbps, eps_link, false);
      break;
    case topo::FabricKind::kRailOptimized:
      add_eps_clos(c, p, n_total, 1.0, gbps, eps_link, true);
      break;
    case topo::FabricKind::kTopoOpt: {
      // Flat patch panel per NIC; beyond one panel's worth of ports a second
      // switching tier is needed, with long-reach optics (paper §7.2 caveat).
      const bool multi_tier = n_servers * 8 > 1024;  // > 1K GPUs
      const double tiers = multi_tier ? 2.0 : 1.0;
      const double reach_mult = multi_tier ? 1.5 : 1.0;
      c.patch_ports = n_total * tiers * p.patch_port;
      c.transceivers = n_total * reach_mult * p.transceiver;
      c.fibers_cables = n_total * tiers * p.fiber;
      break;
    }
    case topo::FabricKind::kMixNet: {
      const double n_eps = static_cast<double>(n_servers) * mixnet_eps_nics;
      const double n_ocs = static_cast<double>(n_servers) *
                           (nics_per_server - mixnet_eps_nics);
      add_eps_clos(c, p, n_eps, 1.0, gbps, eps_link, false);
      c.ocs_ports = n_ocs * p.ocs_port;
      c.transceivers += 2.0 * n_ocs * p.transceiver;  // NIC side + OCS side
      c.fibers_cables += n_ocs * p.fiber;
      break;
    }
    case topo::FabricKind::kNvl72:
    case topo::FabricKind::kMixNetOpticalIO:
      throw std::invalid_argument("scale-up fabrics are not costed (§8)");
  }
  return c;
}

double fabric_cost_musd(topo::FabricKind kind, int n_gpus, int gbps,
                        EpsLinkType eps_link) {
  const int servers = n_gpus / 8;
  return fabric_cost(kind, servers, 8, gbps, eps_link).total() / 1e6;
}

double cost_equivalent_eps_gbps(int alpha, int nics, int gbps_base) {
  const int eps_nics = nics - alpha;
  if (eps_nics <= 0) return 0.0;
  // Electrical budget pinned at the default split (nics - default_alpha = 2
  // ports of gbps_base); electrical cost ~ linear in bandwidth, so total
  // electrical Gbps is constant across the sweep.
  const double electrical_total = 2.0 * gbps_base;
  return electrical_total / eps_nics;
}

}  // namespace mixnet::cost
