#include "net/routing.h"

#include <deque>
#include <stdexcept>
#include <string>

namespace mixnet::net {

namespace {

void check_node(NodeId v, std::size_t nodes, const char* role) {
  if (v < 0 || static_cast<std::size_t>(v) >= nodes)
    throw std::out_of_range(std::string("EcmpRouter: ") + role + " node " +
                            std::to_string(v) + " outside a network of " +
                            std::to_string(nodes) + " nodes");
}

}  // namespace

std::uint64_t mix_hash(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

void EcmpRouter::check_version() {
  if (seen_version_ != net_.version()) {
    invalidate();
    seen_version_ = net_.version();
  }
}

void EcmpRouter::invalidate() {
  cache_.clear();
  lru_.clear();
}

EcmpRouter::DestTree EcmpRouter::build_tree(NodeId dst) const {
  const std::size_t n = net_.node_count();
  DestTree t;
  t.dist.assign(n, -1);
  // BFS over reversed edges from dst.
  std::deque<NodeId> frontier;
  t.dist[static_cast<std::size_t>(dst)] = 0;
  frontier.push_back(dst);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    // Servers terminate paths: they never forward transit traffic (the
    // failure handler builds explicit relay paths when it needs one, §5.4).
    // Direct-connect fabrics (TopoOpt) opt into host forwarding instead.
    if (!allow_server_transit_ && v != dst && net_.node(v).kind == NodeKind::kServer)
      continue;
    const auto dv = t.dist[static_cast<std::size_t>(v)];
    for (LinkId lid : net_.node(v).in_links) {
      const Link& l = net_.link(lid);
      if (!l.up || l.capacity <= 0.0) continue;
      auto& du = t.dist[static_cast<std::size_t>(l.src)];
      if (du == -1) {
        du = dv + 1;
        frontier.push_back(l.src);
      }
    }
  }
  // Candidate links: out-links whose head is one hop closer to dst.
  t.offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto dv = t.dist[v];
    if (dv <= 0) {
      t.offsets[v + 1] = t.offsets[v];
      continue;
    }
    std::uint32_t count = 0;
    for (LinkId lid : net_.node(static_cast<NodeId>(v)).out_links) {
      const Link& l = net_.link(lid);
      if (l.up && l.capacity > 0.0 &&
          t.dist[static_cast<std::size_t>(l.dst)] == dv - 1 &&
          (allow_server_transit_ || l.dst == dst ||
           net_.node(l.dst).kind != NodeKind::kServer))
        ++count;
    }
    t.offsets[v + 1] = t.offsets[v] + count;
  }
  t.candidates.resize(t.offsets[n]);
  std::vector<std::uint32_t> cursor(t.offsets.begin(), t.offsets.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    const auto dv = t.dist[v];
    if (dv <= 0) continue;
    for (LinkId lid : net_.node(static_cast<NodeId>(v)).out_links) {
      const Link& l = net_.link(lid);
      if (l.up && l.capacity > 0.0 &&
          t.dist[static_cast<std::size_t>(l.dst)] == dv - 1 &&
          (allow_server_transit_ || l.dst == dst ||
           net_.node(l.dst).kind != NodeKind::kServer))
        t.candidates[cursor[v]++] = lid;
    }
  }
  return t;
}

const EcmpRouter::DestTree& EcmpRouter::tree_for(NodeId dst) {
  check_node(dst, net_.node_count(), "destination");
  check_version();
  auto it = cache_.find(dst);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.second);
    return it->second.first;
  }
  if (cache_.size() >= cache_capacity_ && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(dst);
  ++trees_built_;
  auto [ins, ok] = cache_.emplace(dst, std::make_pair(build_tree(dst), lru_.begin()));
  if (!ok)
    throw std::logic_error("EcmpRouter: tree cache already holds destination " +
                           std::to_string(dst) +
                           " after a miss (cache and LRU out of sync)");
  return ins->second.first;
}

std::vector<LinkId> EcmpRouter::route(NodeId src, NodeId dst, std::uint64_t flow_hash,
                                      int pin_index) {
  std::vector<LinkId> path;
  if (src == dst) return path;
  const DestTree& t = tree_for(dst);
  check_node(src, t.dist.size(), "source");
  if (t.dist[static_cast<std::size_t>(src)] < 0) return path;
  NodeId v = src;
  int hop = 0;
  while (v != dst) {
    const auto lo = t.offsets[static_cast<std::size_t>(v)];
    const auto hi = t.offsets[static_cast<std::size_t>(v) + 1];
    // BFS and the candidate scan filter links alike, so a reachable node
    // always has a candidate; a link that passes one filter but not the
    // other (a NaN capacity) would leave none and divide by zero below.
    if (hi <= lo)
      throw std::logic_error(
          "EcmpRouter: node " + std::to_string(v) + " is " +
          std::to_string(t.dist[static_cast<std::size_t>(v)]) + " hops from " +
          std::to_string(dst) + " but has no shortest-path candidate link");
    const auto n_cand = hi - lo;
    // Pinned flows pick deterministically; hashed flows spread per hop.
    const auto pick =
        pin_index >= 0
            ? static_cast<std::uint64_t>(pin_index) % n_cand
            : mix_hash(flow_hash ^ (0x9E37ULL * static_cast<std::uint64_t>(hop + 1))) %
                  n_cand;
    const LinkId lid = t.candidates[lo + pick];
    path.push_back(lid);
    v = net_.link(lid).dst;
    ++hop;
  }
  return path;
}

int EcmpRouter::distance(NodeId src, NodeId dst) {
  if (src == dst) return 0;
  const DestTree& t = tree_for(dst);
  check_node(src, t.dist.size(), "source");
  return t.dist[static_cast<std::size_t>(src)];
}

}  // namespace mixnet::net
