// Event-driven max-min fair flow ("fluid") simulator.
//
// This is the packet-level-simulation substitute documented in DESIGN.md §2:
// each flow is a bulk transfer along a fixed path; at any instant, rates are
// the max-min fair allocation given link capacities (progressive filling).
//
// Rate solving is *batched and incremental*: flow starts/cancels/topology
// changes mark the allocation dirty and enqueue a single zero-delay commit
// event, so a collective that launches N flows at one instant pays one solve
// instead of N (rates only matter once virtual time advances). Per-link
// active-flow counts and the set of links in use are maintained incrementally
// as flows come and go (replicant-opera-style bookkeeping), so a solve only
// rebuilds state for links whose membership changed, and per-link throughput
// is served O(1) from an index updated by the solver. `reference_rates()`
// re-solves from scratch; tests assert the fast path matches it.
//
// Flow state is struct-of-arrays (DESIGN.md §13): parallel per-slot vectors
// (remaining bytes, rate, path span, delays) plus one shared path arena, so
// the hot advance/solve loops stream over contiguous doubles instead of
// chasing unordered_map nodes. Slots are append-only within a simulator's
// lifetime (a FlowSim lives for one phase); the active list keeps insertion
// (= FlowId) order and is compacted stably when flows retire, which keeps
// every solve deterministic and independent of completion batching.
//
// For the multi-megabyte transfers that dominate distributed training this
// matches per-packet fair-queueing simulation closely; the PacketVsFluid
// sweep in tests/net_test.cc cross-checks it against the store-and-forward
// PacketSim.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "eventsim/simulator.h"
#include "net/network.h"
#include "net/transport.h"

namespace mixnet::net {

// FlowId / FlowSpec / the Transport interface live in net/transport.h; this
// class is the kFlow rung of the fidelity ladder.
class FlowSim final : public Transport {
 public:
  FlowSim(eventsim::Simulator& sim, const Network& net);

  FlowSim(const FlowSim&) = delete;
  FlowSim& operator=(const FlowSim&) = delete;

  /// Begin a flow; the max-min allocation is re-solved once before virtual
  /// time next advances (same-instant starts share one solve).
  FlowId start_flow(FlowSpec spec) override;

  /// Abort a flow without invoking its callback. Returns false if unknown.
  bool cancel_flow(FlowId id);

  /// Must be called after link capacity/up-down changes so stalled flows are
  /// re-rated. (Topology builders call Network mutators directly; the
  /// simulator cannot observe those.)
  void on_topology_change();

  std::size_t active_flow_count() const { return n_live_; }

  /// Flows whose last byte has *arrived* (not merely drained from the
  /// source); consistent with bytes_delivered() at any mid-sim instant.
  std::uint64_t completed_flow_count() const { return completed_; }
  Bytes bytes_delivered() const { return bytes_delivered_; }

  /// Current max-min rate of a flow (0 if stalled or unknown). Solves first
  /// if the allocation is stale, hence non-const.
  Bps flow_rate(FlowId id);

  /// Sum of current rates over a link (diagnostics / utilization reports).
  /// O(1): served from the per-link throughput index the solver maintains.
  Bps link_throughput(LinkId id);

  /// Max-min rates recomputed from scratch with the reference progressive-
  /// filling algorithm, ignoring all incremental state. Test oracle for the
  /// fast path (see tests/phase_runner_test.cc).
  std::unordered_map<FlowId, Bps> reference_rates() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  void advance_progress();
  void ensure_rates();        // solve_rates() iff dirty
  void schedule_commit();     // one zero-delay solve per mutation instant
  void solve_rates();
  void schedule_next_completion();
  void handle_completion_event();
  void ensure_link_arrays();
  void compact_active();      // stable-drop retired slots from active_
  void add_flow_to_links(std::uint32_t slot);
  void remove_flow_from_links(std::uint32_t slot);
  const LinkId* path_begin(std::uint32_t slot) const {
    return path_arena_.data() + path_off_[slot];
  }
  const LinkId* path_end(std::uint32_t slot) const {
    return path_arena_.data() + path_off_[slot] + path_len_[slot];
  }

  eventsim::Simulator& sim_;
  const Network& net_;

  // --- Struct-of-arrays flow tables, indexed by slot (append-only). ------
  std::vector<Bytes> remaining_;
  std::vector<Bps> rate_;
  std::vector<Bytes> size_;             // original spec.size (stats credit)
  std::vector<TimeNs> path_delay_;
  std::vector<TimeNs> extra_delay_;
  std::vector<std::uint32_t> path_off_;
  std::vector<std::uint32_t> path_len_;
  std::vector<FlowId> flow_id_;
  std::vector<char> alive_;
  std::vector<std::function<void(FlowId, TimeNs)>> on_complete_;
  std::vector<LinkId> path_arena_;      // all paths, back to back
  std::vector<std::uint32_t> active_;   // live slots, insertion order
  std::vector<std::uint32_t> id_to_slot_;  // FlowId-1 -> slot (kNoSlot: none)
  std::size_t n_live_ = 0;

  FlowId next_id_ = 1;
  TimeNs last_progress_time_ = 0;
  eventsim::EventId pending_event_ = 0;
  eventsim::EventId commit_event_ = 0;
  std::uint64_t completed_ = 0;
  Bytes bytes_delivered_ = 0.0;
  bool dirty_ = false;  // flow set / topology changed since the last solve

  // Incremental per-link bookkeeping. Indexed by LinkId; grown on demand
  // (links can be added at runtime, e.g. OCS circuits). `used_links_` holds
  // every link with at least one active flow; entries whose count dropped to
  // zero are compacted out at the next solve.
  std::vector<std::int32_t> link_flow_count_;
  std::vector<Bps> link_rate_;  // throughput index, rebuilt each solve
  std::vector<char> link_in_use_;
  std::vector<LinkId> used_links_;
  // Per-solve scratch, persistent so a solve never clears O(total links).
  std::vector<double> rem_cap_;
  std::vector<std::int32_t> unfrozen_count_;
};

}  // namespace mixnet::net
