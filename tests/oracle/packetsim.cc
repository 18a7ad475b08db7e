#include "oracle/packetsim.h"

#include <algorithm>
#include <cassert>

namespace mixnet::net {

PacketSim::PacketSim(eventsim::Simulator& sim, const Network& net, Bytes mtu,
                     std::size_t window_packets)
    : sim_(sim), net_(net), mtu_(mtu), window_(window_packets) {
  links_.resize(net_.link_count());
}

void PacketSim::start_flow(PacketFlowSpec spec) {
  assert(!spec.path.empty());
  flows_.push_back(FlowState{std::move(spec), 0.0, 0, false});
  inject(static_cast<std::int32_t>(flows_.size() - 1));
}

void PacketSim::inject(std::int32_t flow_idx) {
  FlowState& f = flows_[static_cast<std::size_t>(flow_idx)];
  while (!f.done && f.in_flight < window_ && f.injected < f.spec.size) {
    const Bytes remaining = f.spec.size - f.injected;
    Packet p;
    p.flow = flow_idx;
    p.size = std::min(mtu_, remaining);
    p.hop = 0;
    p.last = (p.size >= remaining - 1e-9);
    f.injected += p.size;
    ++f.in_flight;
    enqueue(f.spec.path[0], p);
  }
}

void PacketSim::enqueue(LinkId lid, Packet p) {
  LinkState& ls = links_[static_cast<std::size_t>(lid)];
  ls.queue.push_back(p);
  if (!ls.busy) serve(lid);
}

void PacketSim::serve(LinkId lid) {
  LinkState& ls = links_[static_cast<std::size_t>(lid)];
  if (ls.queue.empty()) {
    ls.busy = false;
    return;
  }
  ls.busy = true;
  const Link& l = net_.link(lid);
  Packet p = ls.queue.front();
  ls.queue.pop_front();
  const TimeNs tx = transmission_time(p.size, l.capacity);
  if (tx >= kTimeInf) return;  // stranded: the link stays busy for ever
  const TimeNs done = sim_.now() + tx;
  // Serialization finishes at `done`; the packet lands after propagation.
  sim_.schedule_at(done, [this, lid, p, done] {
    serve(lid);
    const TimeNs arrive = done + net_.link(lid).delay;
    sim_.schedule_at(arrive, [this, p, arrive] { arrived(p, arrive); });
  });
}

void PacketSim::arrived(Packet p, TimeNs t) {
  FlowState& f = flows_[static_cast<std::size_t>(p.flow)];
  const std::size_t next_hop = p.hop + 1;
  if (next_hop < f.spec.path.size()) {
    p.hop = next_hop;
    enqueue(f.spec.path[next_hop], p);
    return;
  }
  // Reached destination: credit the window and refill from the source.
  assert(f.in_flight > 0);
  --f.in_flight;
  if (p.last && !f.done) {
    f.done = true;
    if (f.spec.on_complete) f.spec.on_complete(t);
  }
  inject(p.flow);
}

}  // namespace mixnet::net
