// Transport abstraction behind the fidelity ladder (DESIGN.md §12).
//
// Every network backend — the contention-free analytic model below, the
// max-min fluid FlowSim, and the MTU-level packet engine in src/pkt —
// consumes the same FlowSpec and reports completions through the same
// callback, so PhaseRunner and the collective engine are backend-agnostic.
// The ladder is ordered by fidelity and cost:
//
//   kAnalytic  no contention: every flow gets the full bottleneck rate of
//              its own path. A guaranteed lower bound on the fluid model's
//              completion times — cheap enough for 100k-GPU what-ifs.
//   kFlow      max-min fair fluid allocation (FlowSim); the paper's default.
//   kPacket    MTU-chopped store-and-forward with windowed pacing
//              (pkt::PacketTransport); the ground truth the fluid model is
//              machine-checked against by the fidelity-ladder scenario.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "eventsim/simulator.h"
#include "net/network.h"

namespace mixnet::net {

using FlowId = std::int64_t;
inline constexpr FlowId kInvalidFlow = -1;

struct FlowSpec {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bytes size = 0.0;
  /// Path of LinkIds from src to dst. May be empty iff src == dst
  /// (an intra-node transfer that completes after `extra_delay`).
  std::vector<LinkId> path;
  /// Additional fixed latency added to the completion time (e.g. software
  /// launch overhead). Propagation delays of path links are added on top.
  TimeNs extra_delay = 0;
  /// Invoked exactly once when the flow's last byte arrives.
  std::function<void(FlowId, TimeNs)> on_complete;
};

/// Which rung of the fidelity ladder simulates the network.
enum class NetBackend : std::uint8_t {
  kAnalytic = 0,
  kFlow = 1,
  kPacket = 2,
};

/// Stable lowercase names, also the `--backend` CLI vocabulary.
const char* to_string(NetBackend b);

/// Parses "analytic" / "flow" / "packet"; returns false on anything else.
bool parse_net_backend(const std::string& s, NetBackend* out);

/// Interface every backend implements. Completion callbacks fire while the
/// owning eventsim::Simulator runs; callbacks may start new flows
/// re-entrantly (the collective engine's relay path does).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Begin a flow; `spec.on_complete` fires exactly once with the flow's id
  /// and the instant its last byte arrives.
  virtual FlowId start_flow(FlowSpec spec) = 0;
};

/// kAnalytic: contention-free closed form. A flow of S bytes over links
/// L1..Ln completes at start + extra_delay + Σ delay(Li) +
/// transmission_time(S, min capacity(Li)) — the time the fluid model would
/// report if the flow were alone on its path, hence a lower bound on
/// FlowSim's completion (fair-share rate never exceeds the path bottleneck).
class AnalyticTransport final : public Transport {
 public:
  AnalyticTransport(eventsim::Simulator& sim, const Network& net)
      : sim_(sim), net_(net) {}

  FlowId start_flow(FlowSpec spec) override;

 private:
  eventsim::Simulator& sim_;
  const Network& net_;
  FlowId next_id_ = 1;
};

}  // namespace mixnet::net
