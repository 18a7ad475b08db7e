// Network graph model: nodes (hosts/switches) and directed capacitated links.
//
// The graph is deliberately dumb: topology builders (src/topo) create it,
// the router (src/net/routing.h) computes paths over it, and the flow
// simulator (src/net/flowsim.h) moves bytes across it. Links can be
// re-capacitated or brought up/down at runtime, which is how OCS
// reconfiguration is expressed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace mixnet::net {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;

enum class NodeKind : std::uint8_t {
  kServer,     // a GPU server (endpoint of scale-out flows)
  kSwitch,     // electrical packet switch (ToR/Agg/Core/rail)
  kOcs,        // optical circuit switch (circuits bypass it; used for bookkeeping)
  kNvSwitch,   // intra-server scale-up crossbar
};

struct Node {
  NodeKind kind = NodeKind::kServer;
  std::string label;
  std::vector<LinkId> out_links;
  std::vector<LinkId> in_links;
};

struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bps capacity = 0.0;
  TimeNs delay = 0;
  bool up = true;
};

class Network {
 public:
  /// Pre-size the node/link tables. Topology builders call this once with
  /// exact counts so a 100k-GPU fabric is built in one allocation pass
  /// instead of O(log n) reallocation+copy cycles over multi-hundred-MB
  /// vectors. Safe to call repeatedly; never shrinks.
  void reserve(std::size_t nodes, std::size_t links);

  NodeId add_node(NodeKind kind, std::string label = {});

  /// Add a single directed link; returns its id.
  LinkId add_link(NodeId src, NodeId dst, Bps capacity, TimeNs delay);

  /// Add a pair of directed links (a->b and b->a); returns {ab, ba}.
  std::pair<LinkId, LinkId> add_duplex(NodeId a, NodeId b, Bps capacity,
                                       TimeNs delay);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  const Link& link(LinkId id) const { return links_[static_cast<std::size_t>(id)]; }

  /// Change a link's capacity (e.g. splitting bandwidth across ports).
  void set_capacity(LinkId id, Bps capacity);

  /// Bring a link up or down (OCS circuits are down while reconfiguring).
  void set_up(LinkId id, bool up);

  bool is_up(LinkId id) const { return links_[static_cast<std::size_t>(id)].up; }

  /// Monotone counter bumped on every topology mutation; the router uses it
  /// to invalidate cached paths.
  std::uint64_t version() const { return version_; }

  /// First link src->dst that is up, or kInvalidLink.
  LinkId find_link(NodeId src, NodeId dst) const;

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Link>& links() const { return links_; }

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::uint64_t version_ = 0;
};

}  // namespace mixnet::net
