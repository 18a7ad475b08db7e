// PhaseRunner: run one communication phase to completion in isolation.
//
// The training simulator composes an iteration from per-phase durations
// (DESIGN.md §6): because a region's all-to-all traffic never shares
// bottleneck links with other regions on the evaluated fabrics (EP is
// region-local; electrical cores are non-blocking above the leaf), each
// phase can be simulated independently on the live fabric graph and its
// duration reused for every micro-batch that repeats it.
//
// Each call spins up a fresh event simulator + flow simulator + collective
// engine over the shared Network, runs the requested collective, and returns
// the completion time. Nothing is remembered between calls except the
// fabric, the relay rules and the BFS router, so a phase is a pure function
// of its inputs and the live fabric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "collective/engine.h"
#include "common/matrix.h"
#include "control/failures.h"
#include "net/routing.h"
#include "net/transport.h"
#include "pkt/config.h"
#include "topo/fabric.h"

namespace mixnet::sim {

/// Leftover of the deleted phase-result cache: stats() always reports 0
/// hits. Kept only because perfbench/harness/replay.cc reads it, until the
/// benchmark change that retires that harness (ROADMAP).
struct PhaseCacheStats {
  std::uint64_t hits = 0;
};

class PhaseRunner {
 public:
  /// `backend` selects the fidelity-ladder rung each phase is simulated on
  /// (DESIGN.md §12); `pkt` tunes the packet engine when backend == kPacket.
  /// The unnamed third parameter is ignored: it is the deleted phase cache's
  /// capacity, still passed by perfbench/harness/replay.cc until the
  /// benchmark change that retires that harness. Throws
  /// std::invalid_argument for an analytic-core fabric on the packet backend.
  explicit PhaseRunner(topo::Fabric& fabric, collective::EngineConfig ecfg = {},
                       std::size_t = 0,
                       net::NetBackend backend = net::NetBackend::kFlow,
                       pkt::PacketConfig pkt = {});

  /// Relay rules applied to every engine instance (failure scenarios).
  void set_relays(const std::vector<control::RelayRule>& relays) { relays_ = relays; }

  /// EP all-to-all among `group_servers` with server-level `bytes`.
  TimeNs ep_all_to_all(const std::vector<int>& group_servers, const Matrix& bytes);

  /// Point-to-point transfer.
  TimeNs send(int src_server, int dst_server, Bytes bytes);

  /// Ring all-reduce among servers.
  TimeNs all_reduce(const std::vector<int>& servers, Bytes bytes);

  /// All DP gradient rings of a job running concurrently: for every server
  /// position within a replica, a hierarchical all-reduce across replicas.
  /// `servers_per_replica` positions; `dp` replicas; contiguous placement.
  TimeNs dp_all_reduce(int servers_per_replica, int dp, Bytes bytes_per_gpu);

  /// BFS router the engines share. Only TopoOpt routes through it; every
  /// other fabric uses topo::Fabric::route_analytic().
  net::EcmpRouter& router() { return router_; }

  /// Always {0}; see PhaseCacheStats.
  PhaseCacheStats stats() const { return {}; }

  /// Packet hop arrivals the packet engine processed over every phase this
  /// runner ran: an exact work counter (0 off the packet backend).
  std::uint64_t pkt_arrivals() const { return pkt_arrivals_; }

 private:
  template <typename LaunchFn>
  TimeNs run_phase(const char* label, LaunchFn&& launch);

  topo::Fabric& fabric_;
  collective::EngineConfig ecfg_;
  net::NetBackend backend_;
  pkt::PacketConfig pkt_;
  net::EcmpRouter router_;
  std::vector<control::RelayRule> relays_;
  std::uint64_t pkt_arrivals_ = 0;
};

}  // namespace mixnet::sim
