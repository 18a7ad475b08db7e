// net::Transport adapter over the packet engine, plus the fidelity-ladder
// factory.
//
// The engine keeps its own POD event heap; this adapter is the only piece
// that talks to the shared eventsim::Simulator. A single "pump" event drains
// the engine speculatively up to (but never across) the simulator's next
// foreign event — Simulator::next_time() is the lookahead horizon — so long
// stretches of pure packet forwarding cost one simulator event instead of
// one per packet hop. The pump stops at any instant that completes flows and
// delivers the whole batch at its true timestamp (inline when it equals
// now(), else via one scheduled event), so completion callbacks observe
// exactly the same sim_.now() they would under net::PacketSim — the
// collective engine's barriers depend on that.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "eventsim/simulator.h"
#include "net/transport.h"
#include "pkt/config.h"
#include "pkt/engine.h"

namespace mixnet::pkt {

class PacketTransport final : public net::Transport {
 public:
  PacketTransport(eventsim::Simulator& sim, const net::Network& net,
                  PacketConfig cfg = {});

  net::FlowId start_flow(net::FlowSpec spec) override;

  /// The engine's counters (arrivals, fast-forward jumps, packets).
  const Engine& engine() const { return engine_; }

 private:
  struct FlowRec {
    net::FlowId id = net::kInvalidFlow;
    TimeNs extra_delay = 0;
    std::function<void(net::FlowId, TimeNs)> on_complete;
  };

  void ensure_pump();
  void pump();
  void dispatch();

  eventsim::Simulator& sim_;
  const net::Network& net_;
  Engine engine_;
  std::vector<FlowRec> recs_;  // indexed by PktFlowId
  net::FlowId next_id_ = 1;
  bool pump_scheduled_ = false;
  TimeNs pump_time_ = kTimeInf;
  eventsim::EventId pump_event_ = 0;
  std::vector<Completion> batch_;  // pending completion batch for dispatch()
};

/// Instantiates the requested rung of the fidelity ladder. `pcfg` is only
/// consulted by the packet backend.
std::unique_ptr<net::Transport> make_transport(net::NetBackend backend,
                                               eventsim::Simulator& sim,
                                               const net::Network& net,
                                               const PacketConfig& pcfg = {});

}  // namespace mixnet::pkt
