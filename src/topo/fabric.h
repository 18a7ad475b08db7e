// Fabric builders for every interconnect evaluated in the paper (§7.1):
//
//   * Fat-tree (1:1 non-blocking)          -- baseline EPS
//   * Over-subscribed fat-tree (3:1)       -- cheap EPS
//   * Rail-optimized                       -- Nvidia-recommended EPS layout
//   * TopoOpt                              -- one-shot flat optical fabric
//   * MixNet                               -- 2 EPS NICs (fat-tree) + alpha OCS
//                                             NICs per server, regional OCS
//   * NVL72 / MixNet w/ optical I/O (§8)   -- high-radix scale-up domains
//
// The network graph is modeled at server granularity: each server node has
// one link per NIC toward the electrical fabric and/or dynamically managed
// point-to-point circuit links toward regional OCS peers. Intra-server
// (NVSwitch) transfers are handled analytically by the collective runtime
// using `nvlink_gbps_per_gpu` (they never contend with scale-out links).
// Every link has the same fixed propagation delay, and every ToR the same
// fixed number of servers (kLinkDelay and kServersPerRack in fabric.cc);
// describe() reports both.
//
// Every fabric with an electrical side (leaf-spine and rail) is routed in
// closed form: route_analytic() derives the path from server, rack and pod
// indices in O(1) and reproduces the choices of per-destination BFS ECMP
// (net::EcmpRouter) link for link. Only TopoOpt, a direct-connect fabric
// whose hosts forward transit traffic, needs the BFS router.
//
// Electrical cores are modeled as ideal non-blocking crossbars. Two core
// models exist (DESIGN.md §13):
//
//   CoreModel::kExplicit  a single core node with per-rack (per-rail-switch
//                         on rail-optimized) uplinks in the graph; routes
//                         are node-contiguous hop lists, so the packet
//                         engine can walk them. The default.
//   CoreModel::kAnalytic  leaf-spine only: the ideal core is a *computed*
//                         capacity constraint: per-NIC server<->ToR links
//                         keep per-flow state, but at 1:1 over-subscription
//                         the ToR uplinks and the core crossbar disappear
//                         from the net::Network graph entirely (they can
//                         never be the unique max-min bottleneck -- the
//                         uplink's fair share is a mediant of its NIC links'
//                         shares), and routes charge the collapsed hops as
//                         fixed latency. This is the trick that makes
//                         100k-GPU sweeps take seconds (ROADMAP: fig26-xl);
//                         phase durations match the explicit model exactly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "net/network.h"

namespace mixnet::topo {

enum class FabricKind {
  kFatTree,
  kOverSubFatTree,
  kRailOptimized,
  kTopoOpt,
  kMixNet,
  kNvl72,
  kMixNetOpticalIO,
};

const char* to_string(FabricKind k);

/// How the ideal electrical core is represented (see file header).
enum class CoreModel : std::uint8_t {
  kExplicit = 0,
  kAnalytic = 1,
};

const char* to_string(CoreModel m);

struct FabricConfig {
  FabricKind kind = FabricKind::kFatTree;
  int n_servers = 8;
  int gpus_per_server = 8;
  int nics_per_server = 8;
  double nic_gbps = 400.0;
  double oversub = 1.0;  ///< fat-tree over-subscription ratio (3.0 for §7.1)
  /// MixNet split: eps_nics + optical_degree == nics_per_server.
  int eps_nics = 2;
  int optical_degree = 6;  ///< alpha in Algorithm 1
  /// Servers per regionally reconfigurable OCS domain (one EP group).
  int region_servers = 8;
  /// Per-GPU scale-up bandwidth (NVSwitch/NVLink), Gbps. A100 ~ 4800,
  /// NVL72 ~ 7200 (900 GB/s).
  double nvlink_gbps_per_gpu = 4800.0;
  /// OCS-side port rate, Gbps. 0 means "same as nic_gbps"; the co-packaged
  /// optical I/O fabric of §8 sets this to the per-GPU optical bandwidth.
  double ocs_nic_gbps = 0.0;
  /// Explicit core graph vs computed-constraint analytic core (file header).
  CoreModel core_model = CoreModel::kExplicit;

  // --- Named preset factories -------------------------------------------
  // The sanctioned way to obtain a config outside src/topo: each returns the
  // paper's defaults for that interconnect with only the knobs that define
  // it filled in; everything else is tuned through the fluent with_*()
  // layer below. Aggregate-literal initialization (`FabricConfig{...}`) is
  // positional and silently reorders on every struct change -- the lint
  // gate (tools/lint/determinism.json) bans it across src/.

  /// Non-blocking 1:1 fat-tree over `n_servers` 8-NIC servers.
  static FabricConfig fat_tree(int n_servers);
  /// Over-subscribed fat-tree; `ratio` is the leaf:spine over-subscription.
  static FabricConfig oversub_fat_tree(int n_servers, double ratio = 3.0);
  /// Rail-optimized EPS layout (NIC i of every server on rail switch i).
  static FabricConfig rail_optimized(int n_servers);
  /// TopoOpt: flat one-shot optical fabric, no EPS.
  static FabricConfig topoopt(int n_servers);
  /// MixNet: `alpha` OCS NICs per server, the rest toward the EPS fat-tree.
  static FabricConfig mixnet(int n_servers, int alpha = 6);
  /// MixNet with co-packaged optical I/O (§8).
  static FabricConfig mixnet_optical_io(int n_servers, int alpha = 6);
  /// NVL72-class scale-up domains (7200 Gbps/GPU NVLink) on a 1:1 EPS.
  static FabricConfig nvl72(int n_servers);
  /// Factory dispatch on a runtime kind (what TrainingConfig carries).
  static FabricConfig preset(FabricKind kind, int n_servers);

  // --- Fluent tuning layer ----------------------------------------------
  FabricConfig& with_gpus_per_server(int n) { gpus_per_server = n; return *this; }
  FabricConfig& with_nics_per_server(int n) { nics_per_server = n; return *this; }
  FabricConfig& with_nic_gbps(double g) { nic_gbps = g; return *this; }
  FabricConfig& with_oversub(double ratio) { oversub = ratio; return *this; }
  /// MixNet NIC split; keeps eps + optical == nics_per_server the caller's
  /// responsibility (validate() reports violations).
  FabricConfig& with_eps_split(int eps, int optical) {
    eps_nics = eps;
    optical_degree = optical;
    return *this;
  }
  FabricConfig& with_region_servers(int n) { region_servers = n; return *this; }
  FabricConfig& with_nvlink_gbps_per_gpu(double g) {
    nvlink_gbps_per_gpu = g;
    return *this;
  }
  FabricConfig& with_ocs_nic_gbps(double g) { ocs_nic_gbps = g; return *this; }
  FabricConfig& with_core_model(CoreModel m) { core_model = m; return *this; }

  /// Structured validation: one "field: problem" line per violation, empty
  /// when the config is buildable. Fabric::build() calls this and throws
  /// std::invalid_argument with the joined messages, so bad splits fail at
  /// the API boundary instead of as deep build asserts.
  std::vector<std::string> validate() const;

  int n_gpus() const { return n_servers * gpus_per_server; }
  mixnet::Bps nic_bw() const { return mixnet::gbps(nic_gbps); }
  mixnet::Bps nvlink_bw() const { return mixnet::gbps(nvlink_gbps_per_gpu); }
  mixnet::Bps ocs_bw() const {
    return mixnet::gbps(ocs_nic_gbps > 0.0 ? ocs_nic_gbps : nic_gbps);
  }
};

/// A computed route from the analytic core model: the links that carry
/// per-flow state, plus the propagation delay of the collapsed hops so
/// completion times match the explicit graph exactly.
struct AnalyticRoute {
  std::vector<net::LinkId> path;
  mixnet::TimeNs extra_delay = 0;
};

/// A built interconnect: the graph plus enough structure for the OCS
/// controller and collective runtime to reason about it.
class Fabric {
 public:
  static Fabric build(const FabricConfig& cfg);

  const FabricConfig& config() const { return cfg_; }
  net::Network& network() { return net_; }
  const net::Network& network() const { return net_; }

  /// Monotonically increasing topology epoch. Bumped by every fabric link
  /// mutation: apply_circuits / set_region_circuits_up, failure injection,
  /// and any link/node addition or capacity/up-down change applied directly
  /// to the underlying Network (it delegates to Network::version(), so
  /// mutations that bypass Fabric's own mutators are observed too). Only
  /// perfbench's traced replay reads it, to key its first-visit routing,
  /// until the benchmark change that retires perfbench/harness (ROADMAP).
  std::uint64_t epoch() const { return net_.version(); }

  net::NodeId server_node(int server_idx) const {
    return servers_[static_cast<std::size_t>(server_idx)];
  }
  int n_servers() const { return static_cast<int>(servers_.size()); }

  /// True if this fabric has reconfigurable circuits (MixNet/TopoOpt/OpticalIO).
  bool has_circuits() const;

  /// True if servers also connect to a packet-switched fabric.
  bool has_eps() const;

  /// True when routes come from route_analytic(): every kind except TopoOpt,
  /// whose host-transit direct-connect fabric is routed by net::EcmpRouter.
  bool analytic_core() const { return cfg_.kind != FabricKind::kTopoOpt; }

  /// O(1) closed-form route between two servers; throws std::logic_error on
  /// TopoOpt (see analytic_core()). Reproduces net::EcmpRouter's choices on
  /// the explicit graph link for link: a direct up circuit wins (1-hop
  /// shortest path), otherwise candidates at each hop of the 2- or 4-hop
  /// leaf-spine or rail path are filtered by up/capacity in insertion order
  /// and picked by `pin_index % n` (or the per-hop mix_hash when unpinned).
  /// Returns an empty path when the pair is unreachable, matching the
  /// router; extra_delay carries the propagation of core hops collapsed
  /// under CoreModel::kAnalytic.
  AnalyticRoute route_analytic(int src_server, int dst_server,
                               std::uint64_t flow_hash, int pin_index = -1) const;

  int n_regions() const { return static_cast<int>(regions_.size()); }
  const std::vector<int>& region_servers(int region) const {
    return regions_[static_cast<std::size_t>(region)];
  }
  int region_of(int server_idx) const {
    return region_of_[static_cast<std::size_t>(server_idx)];
  }

  /// Per-server number of NICs attached to the OCS (0 for pure EPS fabrics).
  int optical_degree() const;

  /// Install a circuit allocation for one region. `counts` is symmetric,
  /// indexed by position within the region's server list; entry (i,j) is the
  /// number of NIC-to-NIC circuits between those servers. Existing circuits
  /// not present in `counts` are torn down. Row sums must not exceed the
  /// optical degree. Returns the number of link objects touched. Throws
  /// std::out_of_range for an unknown region and std::invalid_argument for
  /// a misshapen, asymmetric or over-degree `counts`.
  int apply_circuits(int region, const Matrix& counts);

  /// Bring every circuit of a region down/up (OCS dark during reconfig).
  void set_region_circuits_up(int region, bool up);

  /// Aggregated circuit link from region-local server i to j (direction i->j),
  /// or kInvalidLink when no circuit exists.
  net::LinkId circuit_link(int region, int i, int j) const;

  /// Current circuit count matrix for a region (copy).
  Matrix circuit_counts(int region) const;

  /// Number of electrical switch nodes (for structural tests).
  int n_switch_nodes() const { return n_switches_; }

  /// Stable canonical-JSON serialization of the built topology's shape
  /// (config + derived structure counts), computed without walking the
  /// graph. Keys are sorted and doubles round-trip, so the text is a
  /// byte-stable fingerprint usable in `--list --format json` and figure
  /// checks.
  std::string describe() const;

 private:
  void build_eps_leaf_spine(int nics_toward_eps, double oversub);
  void build_rail_optimized();
  void init_regions(int servers_per_region);

  FabricConfig cfg_;
  net::Network net_;
  std::vector<net::NodeId> servers_;
  std::vector<std::vector<int>> regions_;  // region -> server indices
  std::vector<int> region_of_;             // server index -> region
  int n_switches_ = 0;

  // Closed-form routing tables (every kind but TopoOpt). NIC links are stored
  // SoA so route_analytic touches two cache lines per route. An edge switch
  // is a ToR (index = rack) on leaf-spine and a rail switch (index =
  // pod * rails + rail) on rail-optimized.
  bool core_collapsed_ = false;  // kAnalytic at 1:1: uplinks absent from the graph
  int eps_nics_used_ = 0;        // NIC links per server toward the EPS
  int pod_size_ = 0;             // servers per rail pod; 0 on leaf-spine
  std::vector<net::LinkId> nic_up_;    // [server * eps_nics_used_ + k] srv->edge
  std::vector<net::LinkId> nic_down_;  // [server * eps_nics_used_ + k] edge->srv
  std::vector<net::LinkId> edge_up_;   // [edge switch] edge->core (empty if collapsed)
  std::vector<net::LinkId> edge_down_; // [edge switch] core->edge

  struct CircuitPair {
    net::LinkId fwd = net::kInvalidLink;
    net::LinkId rev = net::kInvalidLink;
    int count = 0;
  };
  // region -> map (local i, local j), i < j -> aggregated duplex circuit.
  std::vector<std::map<std::pair<int, int>, CircuitPair>> circuits_;
};

}  // namespace mixnet::topo
