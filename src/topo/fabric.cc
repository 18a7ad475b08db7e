#include "topo/fabric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/canonical.h"
#include "net/routing.h"

namespace mixnet::topo {

using net::LinkId;
using net::Network;
using net::NodeId;
using net::NodeKind;

const char* to_string(FabricKind k) {
  switch (k) {
    case FabricKind::kFatTree: return "Fat-tree";
    case FabricKind::kOverSubFatTree: return "OverSub. Fat-tree";
    case FabricKind::kRailOptimized: return "Rail-optimized";
    case FabricKind::kTopoOpt: return "TopoOpt";
    case FabricKind::kMixNet: return "MixNet";
    case FabricKind::kNvl72: return "NVL72";
    case FabricKind::kMixNetOpticalIO: return "MixNet (optical I/O)";
  }
  return "?";
}

const char* to_string(CoreModel m) {
  switch (m) {
    case CoreModel::kExplicit: return "explicit";
    case CoreModel::kAnalytic: return "analytic";
  }
  return "?";
}

FabricConfig FabricConfig::fat_tree(int n_servers) {
  FabricConfig c;
  c.kind = FabricKind::kFatTree;
  c.n_servers = n_servers;
  return c;
}

FabricConfig FabricConfig::oversub_fat_tree(int n_servers, double ratio) {
  FabricConfig c;
  c.kind = FabricKind::kOverSubFatTree;
  c.n_servers = n_servers;
  c.oversub = ratio;
  return c;
}

FabricConfig FabricConfig::rail_optimized(int n_servers) {
  FabricConfig c;
  c.kind = FabricKind::kRailOptimized;
  c.n_servers = n_servers;
  return c;
}

FabricConfig FabricConfig::topoopt(int n_servers) {
  FabricConfig c;
  c.kind = FabricKind::kTopoOpt;
  c.n_servers = n_servers;
  return c;
}

FabricConfig FabricConfig::mixnet(int n_servers, int alpha) {
  FabricConfig c;
  c.kind = FabricKind::kMixNet;
  c.n_servers = n_servers;
  c.optical_degree = alpha;
  c.eps_nics = c.nics_per_server - alpha;
  return c;
}

FabricConfig FabricConfig::mixnet_optical_io(int n_servers, int alpha) {
  FabricConfig c = mixnet(n_servers, alpha);
  c.kind = FabricKind::kMixNetOpticalIO;
  return c;
}

FabricConfig FabricConfig::nvl72(int n_servers) {
  FabricConfig c;
  c.kind = FabricKind::kNvl72;
  c.n_servers = n_servers;
  c.nvlink_gbps_per_gpu = 7200.0;
  return c;
}

FabricConfig FabricConfig::preset(FabricKind kind, int n_servers) {
  switch (kind) {
    case FabricKind::kFatTree: return fat_tree(n_servers);
    case FabricKind::kOverSubFatTree: return oversub_fat_tree(n_servers);
    case FabricKind::kRailOptimized: return rail_optimized(n_servers);
    case FabricKind::kTopoOpt: return topoopt(n_servers);
    case FabricKind::kMixNet: return mixnet(n_servers);
    case FabricKind::kNvl72: return nvl72(n_servers);
    case FabricKind::kMixNetOpticalIO: return mixnet_optical_io(n_servers);
  }
  throw std::invalid_argument("FabricConfig::preset: unknown FabricKind");
}

std::vector<std::string> FabricConfig::validate() const {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const char* msg) {
    if (!ok) errors.emplace_back(msg);
  };
  require(n_servers >= 1, "n_servers: must be >= 1");
  require(gpus_per_server >= 1, "gpus_per_server: must be >= 1");
  require(nics_per_server >= 1, "nics_per_server: must be >= 1");
  require(nic_gbps > 0.0, "nic_gbps: must be > 0");
  require(oversub >= 1.0, "oversub: must be >= 1 (leaf:spine ratio)");
  require(region_servers >= 1, "region_servers: must be >= 1");
  require(nvlink_gbps_per_gpu > 0.0, "nvlink_gbps_per_gpu: must be > 0");
  require(ocs_nic_gbps >= 0.0, "ocs_nic_gbps: must be >= 0 (0 = nic_gbps)");
  require(link_delay >= 0, "link_delay: must be >= 0");
  require(servers_per_rack >= 1, "servers_per_rack: must be >= 1");
  if (kind == FabricKind::kMixNet || kind == FabricKind::kMixNetOpticalIO) {
    require(eps_nics >= 1, "eps_nics: MixNet needs at least one EPS NIC");
    require(optical_degree >= 1,
            "optical_degree: MixNet needs at least one OCS NIC (alpha >= 1)");
    if (eps_nics + optical_degree != nics_per_server)
      errors.emplace_back(
          "eps_nics/optical_degree: MixNet NIC split must sum to "
          "nics_per_server");
  }
  if (core_model == CoreModel::kAnalytic) {
    switch (kind) {
      case FabricKind::kFatTree:
      case FabricKind::kOverSubFatTree:
      case FabricKind::kMixNet:
      case FabricKind::kNvl72:
      case FabricKind::kMixNetOpticalIO:
        break;
      default:
        errors.emplace_back(
            "core_model: kAnalytic requires a leaf-spine electrical core "
            "(fat-tree/MixNet/NVL72); rail-optimized and TopoOpt are "
            "explicit-only");
    }
  }
  return errors;
}

bool Fabric::has_circuits() const {
  switch (cfg_.kind) {
    case FabricKind::kTopoOpt:
    case FabricKind::kMixNet:
    case FabricKind::kMixNetOpticalIO:
      return true;
    default:
      return false;
  }
}

bool Fabric::has_eps() const { return cfg_.kind != FabricKind::kTopoOpt; }

int Fabric::optical_degree() const {
  switch (cfg_.kind) {
    case FabricKind::kTopoOpt:
      return cfg_.nics_per_server;
    case FabricKind::kMixNet:
    case FabricKind::kMixNetOpticalIO:
      return cfg_.optical_degree;
    default:
      return 0;
  }
}

void Fabric::init_regions(int servers_per_region) {
  const int n = n_servers();
  region_of_.assign(static_cast<std::size_t>(n), 0);
  regions_.clear();
  for (int s = 0; s < n; ++s) {
    const int r = s / servers_per_region;
    if (r >= static_cast<int>(regions_.size())) regions_.emplace_back();
    regions_[static_cast<std::size_t>(r)].push_back(s);
    region_of_[static_cast<std::size_t>(s)] = r;
  }
  circuits_.assign(regions_.size(), {});
}

void Fabric::build_eps_leaf_spine(int nics_toward_eps, double oversub) {
  // Leaf-spine with one ideal core: each rack of servers_per_rack servers
  // shares a ToR; each server contributes `nics_toward_eps` NIC links; the
  // ToR uplink is sized at downlink_total / oversub toward a single
  // non-blocking core node. Under the analytic core model at 1:1 the
  // uplinks and the core node are not materialized at all: a non-blocking
  // uplink's fair share is a mediant of its NIC links' shares, so it can
  // never be the unique max-min bottleneck and dropping it preserves every
  // allocation exactly (DESIGN.md §13).
  const int n = n_servers();
  const int spr = cfg_.servers_per_rack;
  const int n_racks = (n + spr - 1) / spr;
  core_collapsed_ = cfg_.core_model == CoreModel::kAnalytic && oversub <= 1.0;
  eps_nics_used_ = nics_toward_eps;

  // One pass, exact reservation: servers are already in the node table.
  net_.reserve(net_.node_count() + static_cast<std::size_t>(n_racks) +
                   (core_collapsed_ ? 0 : 1),
               net_.link_count() +
                   static_cast<std::size_t>(n) * nics_toward_eps * 2 +
                   (core_collapsed_ ? 0 : static_cast<std::size_t>(n_racks) * 2));
  nic_up_.reserve(static_cast<std::size_t>(n) * nics_toward_eps);
  nic_down_.reserve(static_cast<std::size_t>(n) * nics_toward_eps);
  if (!core_collapsed_) {
    edge_up_.reserve(static_cast<std::size_t>(n_racks));
    edge_down_.reserve(static_cast<std::size_t>(n_racks));
  }

  const NodeId core =
      core_collapsed_ ? net::kInvalidNode : net_.add_node(NodeKind::kSwitch, "core");
  if (!core_collapsed_) ++n_switches_;
  for (int r = 0; r < n_racks; ++r) {
    const NodeId tor = net_.add_node(NodeKind::kSwitch, "tor" + std::to_string(r));
    ++n_switches_;
    int servers_in_rack = 0;
    for (int s = r * spr; s < std::min(n, (r + 1) * spr); ++s) {
      for (int nic = 0; nic < nics_toward_eps; ++nic) {
        const auto [up, down] = net_.add_duplex(
            servers_[static_cast<std::size_t>(s)], tor, cfg_.nic_bw(),
            cfg_.link_delay);
        nic_up_.push_back(up);
        nic_down_.push_back(down);
      }
      ++servers_in_rack;
    }
    if (core_collapsed_) continue;
    const Bps up_cap = cfg_.nic_bw() * nics_toward_eps * servers_in_rack / oversub;
    const auto [up, down] = net_.add_duplex(tor, core, up_cap, cfg_.link_delay);
    edge_up_.push_back(up);
    edge_down_.push_back(down);
  }
}

void Fabric::build_rail_optimized() {
  // NIC i of every server in a pod connects to rail switch i; rail switches
  // connect to an ideal non-blocking core. Within a rail, same-rank NICs are
  // two hops apart; cross-rail traffic goes through the core.
  const int n = n_servers();
  const int rails = cfg_.nics_per_server;
  pod_size_ = std::max(cfg_.servers_per_rack * 4, 32);
  const int n_pods = (n + pod_size_ - 1) / pod_size_;
  eps_nics_used_ = rails;
  net_.reserve(net_.node_count() + 1 +
                   static_cast<std::size_t>(n_pods) * rails,
               net_.link_count() + static_cast<std::size_t>(n) * rails * 2 +
                   static_cast<std::size_t>(n_pods) * rails * 2);
  // Links are created pod by pod, rail by rail; the tables are indexed
  // server-major so one server's rails sit side by side.
  nic_up_.assign(static_cast<std::size_t>(n) * rails, net::kInvalidLink);
  nic_down_.assign(static_cast<std::size_t>(n) * rails, net::kInvalidLink);
  edge_up_.reserve(static_cast<std::size_t>(n_pods) * rails);
  edge_down_.reserve(static_cast<std::size_t>(n_pods) * rails);
  const NodeId core = net_.add_node(NodeKind::kSwitch, "core");
  ++n_switches_;
  for (int p = 0; p < n_pods; ++p) {
    const int lo = p * pod_size_;
    const int hi = std::min(n, (p + 1) * pod_size_);
    for (int rail = 0; rail < rails; ++rail) {
      const NodeId sw = net_.add_node(
          NodeKind::kSwitch, "rail" + std::to_string(p) + "." + std::to_string(rail));
      ++n_switches_;
      for (int s = lo; s < hi; ++s) {
        const auto [up, down] =
            net_.add_duplex(servers_[static_cast<std::size_t>(s)], sw, cfg_.nic_bw(),
                            cfg_.link_delay);
        const auto k = static_cast<std::size_t>(s) * rails + rail;
        nic_up_[k] = up;
        nic_down_[k] = down;
      }
      const Bps up_cap = cfg_.nic_bw() * (hi - lo);  // 1:1 toward core
      const auto [up, down] =
          net_.add_duplex(sw, core, up_cap, cfg_.link_delay);
      edge_up_.push_back(up);
      edge_down_.push_back(down);
    }
  }
}

Fabric Fabric::build(const FabricConfig& cfg) {
  Fabric f;
  f.cfg_ = cfg;
  if (auto errors = cfg.validate(); !errors.empty()) {
    std::string msg = "FabricConfig::validate failed:";
    for (const auto& e : errors) {
      msg += "\n  - ";
      msg += e;
    }
    throw std::invalid_argument(msg);
  }
  f.net_.reserve(static_cast<std::size_t>(cfg.n_servers), 0);
  f.servers_.reserve(static_cast<std::size_t>(cfg.n_servers));
  for (int s = 0; s < cfg.n_servers; ++s)
    f.servers_.push_back(
        f.net_.add_node(NodeKind::kServer, "server" + std::to_string(s)));

  switch (cfg.kind) {
    case FabricKind::kFatTree:
      f.build_eps_leaf_spine(cfg.nics_per_server, 1.0);
      f.init_regions(cfg.n_servers);  // one logical region (unused)
      break;
    case FabricKind::kOverSubFatTree:
      f.build_eps_leaf_spine(cfg.nics_per_server, cfg.oversub > 1.0 ? cfg.oversub : 3.0);
      f.init_regions(cfg.n_servers);
      break;
    case FabricKind::kRailOptimized:
      f.build_rail_optimized();
      f.init_regions(cfg.n_servers);
      break;
    case FabricKind::kTopoOpt:
      // Flat optical patch panel: no EPS at all; one cluster-wide "region"
      // whose circuits are fixed once at job start.
      f.init_regions(cfg.n_servers);
      break;
    case FabricKind::kMixNet:
      f.build_eps_leaf_spine(cfg.eps_nics, 1.0);
      f.init_regions(cfg.region_servers);
      break;
    case FabricKind::kNvl72:
      // Scale-up domains are the "servers"; they interconnect via Ethernet.
      f.build_eps_leaf_spine(cfg.nics_per_server, 1.0);
      f.init_regions(cfg.n_servers);
      break;
    case FabricKind::kMixNetOpticalIO:
      f.build_eps_leaf_spine(cfg.eps_nics, 1.0);
      f.init_regions(cfg.region_servers);
      break;
  }
  return f;
}

namespace {

// One ECMP decision, reproducing EcmpRouter: the slots k < n that `usable`
// accepts are the candidates in insertion order; pinned flows take
// pin % count, unpinned flows the per-hop mixed hash. Returns the chosen
// slot, or -1 when there is no candidate.
template <typename Usable>
int ecmp_pick(int n, int hop, std::uint64_t flow_hash, int pin_index,
              const Usable& usable) {
  int n_up = 0;
  for (int k = 0; k < n; ++k)
    if (usable(k)) ++n_up;
  if (n_up == 0) return -1;
  const auto pick =
      pin_index >= 0
          ? static_cast<std::uint64_t>(pin_index) % static_cast<std::uint64_t>(n_up)
          : net::mix_hash(flow_hash ^
                          (0x9E37ULL * static_cast<std::uint64_t>(hop + 1))) %
                static_cast<std::uint64_t>(n_up);
  std::uint64_t seen = 0;
  for (int k = 0; k < n; ++k)
    if (usable(k) && seen++ == pick) return k;
  return -1;  // unreachable
}

}  // namespace

AnalyticRoute Fabric::route_analytic(int src_server, int dst_server,
                                     std::uint64_t flow_hash,
                                     int pin_index) const {
  if (!analytic_core())
    throw std::logic_error(
        "Fabric::route_analytic: TopoOpt has no closed-form route; its "
        "host-transit fabric is routed by net::EcmpRouter");
  AnalyticRoute r;
  if (src_server == dst_server) return r;
  const NodeId a = servers_[static_cast<std::size_t>(src_server)];
  const NodeId b = servers_[static_cast<std::size_t>(dst_server)];

  // A direct up circuit is a 1-hop shortest path: on the explicit graph the
  // BFS router always prefers it over the 2/4-hop EPS detour (and servers
  // never forward, so it is the only 1-hop candidate). Only circuit fabrics
  // can have server->server links, so the scan is skipped elsewhere.
  if (const LinkId direct = has_circuits() ? net_.find_link(a, b) : net::kInvalidLink;
      direct != net::kInvalidLink) {
    if (net_.link(direct).capacity > 0.0) {
      r.path.push_back(direct);
      return r;
    }
  }
  const auto usable = [this](LinkId l) {
    const net::Link& link = net_.link(l);
    return link.up && link.capacity > 0.0;
  };
  const auto pick = [flow_hash, pin_index](int n, int hop, const auto& ok) {
    return ecmp_pick(n, hop, flow_hash, pin_index, ok);
  };
  r.path.reserve(4);  // the longest path: one allocation per route
  const int nics = eps_nics_used_;
  const LinkId* src_up = nic_up_.data() + static_cast<std::size_t>(src_server) * nics;
  const LinkId* dst_down =
      nic_down_.data() + static_cast<std::size_t>(dst_server) * nics;

  if (pod_size_ > 0) {
    // Rail-optimized: NIC k of every server in a pod is on rail switch
    // (pod, k). In one pod, a rail usable at both ends gives the 2-hop path
    // server -> rail switch -> server; the rail is picked at hop 0 and hop 1
    // has one candidate.
    const int pod_src = src_server / pod_size_;
    const int pod_dst = dst_server / pod_size_;
    if (pod_src == pod_dst) {
      const int k = pick(nics, 0, [&](int i) {
        return usable(src_up[i]) && usable(dst_down[i]);
      });
      if (k >= 0) {
        r.path.push_back(src_up[k]);
        r.path.push_back(dst_down[k]);
        return r;
      }
    }
    // Otherwise server -> rail switch -> core -> rail switch -> server. The
    // src rail is picked at hop 0 among switches that reach the core, the
    // dst rail at hop 2 among switches whose link down to the dst is
    // usable; hops 1 and 3 have one candidate each.
    const LinkId* sw_up = edge_up_.data() + static_cast<std::size_t>(pod_src) * nics;
    const LinkId* sw_down =
        edge_down_.data() + static_cast<std::size_t>(pod_dst) * nics;
    const int i = pick(nics, 0, [&](int k) {
      return usable(src_up[k]) && usable(sw_up[k]);
    });
    const int j = pick(nics, 2, [&](int k) {
      return usable(sw_down[k]) && usable(dst_down[k]);
    });
    if (i < 0 || j < 0) return r;
    r.path.push_back(src_up[i]);
    r.path.push_back(sw_up[i]);
    r.path.push_back(sw_down[j]);
    r.path.push_back(dst_down[j]);
    return r;
  }

  // Leaf-spine: server -> ToR -> server in one rack (NIC picks at hops 0
  // and 1), else server -> ToR -> core -> ToR -> server, where the uplink
  // hops 1 and 2 have one candidate each, so only the NIC picks at hops 0
  // and 3 consume the pin/hash.
  const int rack_src = src_server / cfg_.servers_per_rack;
  const int rack_dst = dst_server / cfg_.servers_per_rack;
  const int up = pick(nics, 0, [&](int k) { return usable(src_up[k]); });
  const int down = pick(nics, rack_src == rack_dst ? 1 : 3,
                        [&](int k) { return usable(dst_down[k]); });
  if (up < 0 || down < 0) return r;
  r.path.push_back(src_up[up]);
  if (rack_src != rack_dst) {
    if (core_collapsed_) {
      // The ideal core's links carry no state; only their propagation remains.
      r.extra_delay = 2 * cfg_.link_delay;
    } else {
      const LinkId ru = edge_up_[static_cast<std::size_t>(rack_src)];
      const LinkId rd = edge_down_[static_cast<std::size_t>(rack_dst)];
      if (!usable(ru) || !usable(rd)) {
        r.path.clear();
        return r;  // core path severed; matches the router's unreachable case
      }
      r.path.push_back(ru);
      r.path.push_back(rd);
    }
  }
  r.path.push_back(dst_down[down]);
  return r;
}

std::string Fabric::describe() const {
  CanonicalWriter w;
  w.field("kind", to_string(cfg_.kind));
  w.field("core_model", to_string(cfg_.core_model));
  w.field("n_servers", cfg_.n_servers);
  w.field("gpus_per_server", cfg_.gpus_per_server);
  w.field("n_gpus", cfg_.n_gpus());
  w.field("nics_per_server", cfg_.nics_per_server);
  w.field("nic_gbps", cfg_.nic_gbps);
  w.field("oversub", cfg_.oversub);
  w.field("eps_nics", cfg_.eps_nics);
  w.field("optical_degree", optical_degree());
  w.field("region_servers", cfg_.region_servers);
  w.field("servers_per_rack", cfg_.servers_per_rack);
  w.field("nvlink_gbps_per_gpu", cfg_.nvlink_gbps_per_gpu);
  w.field("ocs_nic_gbps", cfg_.ocs_nic_gbps);
  w.field("link_delay_ns", static_cast<std::int64_t>(cfg_.link_delay));
  w.field("n_regions", n_regions());
  w.field("n_switch_nodes", n_switches_);
  w.field("n_nodes", static_cast<std::int64_t>(net_.node_count()));
  w.field("n_links", static_cast<std::int64_t>(net_.link_count()));
  w.field("has_eps", has_eps());
  w.field("has_circuits", has_circuits());
  w.field("core_collapsed", core_collapsed_);
  return w.json_text();
}

int Fabric::apply_circuits(int region, const Matrix& counts) {
  if (!has_circuits()) throw std::logic_error("fabric has no reconfigurable circuits");
  if (region < 0 || region >= n_regions())
    throw std::out_of_range("apply_circuits: region " + std::to_string(region) +
                            " outside [0, " + std::to_string(n_regions()) + ")");
  auto& reg = circuits_[static_cast<std::size_t>(region)];
  const auto& members = regions_[static_cast<std::size_t>(region)];
  const auto m = members.size();
  if (counts.rows() != m || counts.cols() != m)
    throw std::invalid_argument(
        "apply_circuits: counts is " + std::to_string(counts.rows()) + "x" +
        std::to_string(counts.cols()) + ", region " + std::to_string(region) +
        " has " + std::to_string(m) + " servers");
  const int degree = optical_degree();
  for (std::size_t i = 0; i < m; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      row += counts(i, j);
      if (std::abs(counts(i, j) - counts(j, i)) >= 1e-9)
        throw std::invalid_argument(
            "apply_circuits: counts not symmetric at (" + std::to_string(i) + ", " +
            std::to_string(j) + ") in region " + std::to_string(region));
    }
    if (row > degree + 1e-9)
      throw std::invalid_argument("circuit allocation exceeds optical degree");
  }

  int touched = 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const int want = static_cast<int>(std::lround(counts(i, j)));
      const auto key = std::make_pair(static_cast<int>(i), static_cast<int>(j));
      auto it = reg.find(key);
      if (want == 0) {
        if (it != reg.end() && it->second.count != 0) {
          net_.set_up(it->second.fwd, false);
          net_.set_up(it->second.rev, false);
          it->second.count = 0;
          ++touched;
        }
        continue;
      }
      const Bps cap = cfg_.ocs_bw() * want;
      if (it == reg.end()) {
        const NodeId a = servers_[static_cast<std::size_t>(members[i])];
        const NodeId b = servers_[static_cast<std::size_t>(members[j])];
        auto [fwd, rev] = net_.add_duplex(a, b, cap, cfg_.link_delay);
        reg.emplace(key, CircuitPair{fwd, rev, want});
        ++touched;
      } else if (it->second.count != want) {
        net_.set_capacity(it->second.fwd, cap);
        net_.set_capacity(it->second.rev, cap);
        net_.set_up(it->second.fwd, true);
        net_.set_up(it->second.rev, true);
        it->second.count = want;
        ++touched;
      } else if (!net_.is_up(it->second.fwd)) {
        net_.set_up(it->second.fwd, true);
        net_.set_up(it->second.rev, true);
        ++touched;
      }
    }
  }
  return touched;
}

void Fabric::set_region_circuits_up(int region, bool up) {
  for (auto& [key, pair] : circuits_[static_cast<std::size_t>(region)]) {
    if (pair.count <= 0) continue;
    net_.set_up(pair.fwd, up);
    net_.set_up(pair.rev, up);
  }
}

net::LinkId Fabric::circuit_link(int region, int i, int j) const {
  if (i == j) return net::kInvalidLink;
  const auto key = std::make_pair(std::min(i, j), std::max(i, j));
  const auto& reg = circuits_[static_cast<std::size_t>(region)];
  auto it = reg.find(key);
  if (it == reg.end() || it->second.count <= 0) return net::kInvalidLink;
  if (!net_.is_up(it->second.fwd)) return net::kInvalidLink;
  return i < j ? it->second.fwd : it->second.rev;
}

Matrix Fabric::circuit_counts(int region) const {
  const auto m = regions_[static_cast<std::size_t>(region)].size();
  Matrix out(m, m, 0.0);
  for (const auto& [key, pair] : circuits_[static_cast<std::size_t>(region)]) {
    if (pair.count <= 0 || !net_.is_up(pair.fwd)) continue;
    out(static_cast<std::size_t>(key.first), static_cast<std::size_t>(key.second)) =
        pair.count;
    out(static_cast<std::size_t>(key.second), static_cast<std::size_t>(key.first)) =
        pair.count;
  }
  return out;
}

}  // namespace mixnet::topo
