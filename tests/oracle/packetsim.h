// Store-and-forward packet-level simulator: the golden test oracle.
//
// A deliberately simple reference model that the tests diff pkt::Engine
// against exactly (tests/pkt_test.cc) and use to validate the fluid FlowSim
// (tests/net_test.cc); bench_micro times it as BM_PacketSimReference. No
// binary that produces figures links it (library mixnet_test_oracle).
//
// Flows are chopped into MTU-sized packets, each link serves packets FIFO at
// its capacity, and queues are unbounded (lossless fabric, as in RoCE/IB with
// PFC). Sources are window-paced (packets admitted per-flow round-robin) so
// that long-lived flows sharing a bottleneck converge to fair shares, which
// is what the fluid model assumes.
//
// A packet that starts serializing on a zero-capacity link (transmission
// time kTimeInf) is stranded: the link stays busy and nothing is scheduled,
// so it and everything queued behind it never arrive, as in pkt::Engine.
//
// Complexity is O(packets x hops) -- only suitable for small scenarios, which
// is all the cross-validation tests need.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "eventsim/simulator.h"
#include "net/network.h"

namespace mixnet::net {

struct PacketFlowSpec {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bytes size = 0.0;
  std::vector<LinkId> path;
  std::function<void(TimeNs)> on_complete;
};

class PacketSim {
 public:
  PacketSim(eventsim::Simulator& sim, const Network& net, Bytes mtu = 4096.0,
            std::size_t window_packets = 8);

  /// Register a flow; it starts emitting packets immediately.
  void start_flow(PacketFlowSpec spec);

 private:
  struct Packet {
    std::int32_t flow = -1;
    Bytes size = 0.0;
    std::size_t hop = 0;
    bool last = false;
  };
  struct FlowState {
    PacketFlowSpec spec;
    Bytes injected = 0.0;   // bytes handed to the first link
    std::size_t in_flight = 0;
    bool done = false;
  };
  struct LinkState {
    std::deque<Packet> queue;
    bool busy = false;
  };

  void inject(std::int32_t flow_idx);
  void enqueue(LinkId lid, Packet p);
  void serve(LinkId lid);
  void arrived(Packet p, TimeNs t);

  eventsim::Simulator& sim_;
  const Network& net_;
  Bytes mtu_;
  std::size_t window_;
  std::vector<FlowState> flows_;
  std::vector<LinkState> links_;
};

}  // namespace mixnet::net
