// ECMP shortest-path routing over a Network.
//
// Paths are computed from per-destination BFS trees over reversed edges:
// next_hops[node] is the set of outgoing links that lie on *some* shortest
// path to the destination. A flow picks among candidates by hashing its flow
// id, giving deterministic per-flow ECMP spraying (what a 5-tuple hash does
// in a real fabric). BFS trees are kept in a small LRU cache so repeated
// routing to the same destination (the common case: collectives) is O(path).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "net/network.h"

namespace mixnet::net {

class EcmpRouter {
 public:
  /// `cache_capacity` bounds the number of per-destination BFS trees held.
  /// `allow_server_transit` permits paths through intermediate server nodes
  /// (hosts forward traffic), which direct-connect fabrics like TopoOpt
  /// require; packet-switched fabrics keep it off.
  explicit EcmpRouter(const Network& net, std::size_t cache_capacity = 256,
                      bool allow_server_transit = false)
      : net_(net),
        cache_capacity_(cache_capacity),
        allow_server_transit_(allow_server_transit) {}

  /// Shortest path (sequence of LinkIds) from src to dst, using `flow_hash`
  /// to break ECMP ties. Returns an empty vector if dst is unreachable.
  /// When `pin_index` >= 0, candidate selection at every hop uses
  /// `pin_index % n_candidates` instead of the hash -- this models NIC/QP
  /// channel pinning (NCCL assigns channels to NICs round-robin), which is
  /// what multi-NIC collectives rely on to avoid ECMP collisions.
  std::vector<LinkId> route(NodeId src, NodeId dst, std::uint64_t flow_hash,
                            int pin_index = -1);

  /// Hop distance (number of links) from src to dst, or -1 if unreachable.
  int distance(NodeId src, NodeId dst);

  /// Drop all cached BFS trees (called automatically on topology change).
  void invalidate();

  /// Number of per-destination BFS trees built since construction.
  std::uint64_t trees_built() const { return trees_built_; }

 private:
  struct DestTree {
    // For each node: candidate outgoing links on shortest paths to dest,
    // stored as [offsets[n], offsets[n+1]) ranges into `candidates`.
    std::vector<std::uint32_t> offsets;
    std::vector<LinkId> candidates;
    std::vector<std::int32_t> dist;  // hop count to dest, -1 unreachable
  };

  const DestTree& tree_for(NodeId dst);
  DestTree build_tree(NodeId dst) const;
  void check_version();

  const Network& net_;
  std::size_t cache_capacity_;
  bool allow_server_transit_ = false;
  std::uint64_t seen_version_ = 0;
  std::uint64_t trees_built_ = 0;
  std::list<NodeId> lru_;  // most-recent at front
  std::unordered_map<NodeId, std::pair<DestTree, std::list<NodeId>::iterator>> cache_;
};

/// Stateless mixing hash used for ECMP decisions.
std::uint64_t mix_hash(std::uint64_t x);

}  // namespace mixnet::net
