#include "pkt/transport.h"

#include <utility>

#include "net/flowsim.h"

namespace mixnet::pkt {

PacketTransport::PacketTransport(eventsim::Simulator& sim,
                                 const net::Network& net, PacketConfig cfg)
    : sim_(sim), net_(net), engine_(net, cfg) {}

net::FlowId PacketTransport::start_flow(net::FlowSpec spec) {
  net::check_flow_spec(spec, "pkt::PacketTransport::start_flow");
  const net::FlowId id = next_id_++;
  const TimeNs now = sim_.now();
  if (spec.path.empty() || spec.size <= 0.0) {
    // No packets to move: intra-node transfer (or a degenerate zero-byte
    // flow). Complete after the fixed latency plus any propagation delay,
    // mirroring the fluid model's closed form.
    TimeNs done = now + spec.extra_delay;
    for (const net::LinkId lid : spec.path) done += net_.link(lid).delay;
    sim_.schedule_at(done, [cb = std::move(spec.on_complete), id, done] {
      if (cb) cb(id, done);
    });
    return id;
  }
  const PktFlowId f = engine_.add_flow(spec.size, spec.path, now);
  if (recs_.size() <= static_cast<std::size_t>(f)) {
    recs_.resize(static_cast<std::size_t>(f) + 1);
  }
  FlowRec& r = recs_[static_cast<std::size_t>(f)];
  r.id = id;
  r.extra_delay = spec.extra_delay;
  r.on_complete = std::move(spec.on_complete);
  ensure_pump();
  return id;
}

// Keep exactly one pending pump event, at the engine's earliest instant.
// Called after injections (which may create events earlier than a pump
// already on the calendar).
void PacketTransport::ensure_pump() {
  const TimeNs next = engine_.next_time();
  if (next == kTimeInf) return;
  if (pump_scheduled_ && pump_time_ <= next) return;
  if (pump_scheduled_) sim_.cancel(pump_event_);
  pump_time_ = next;
  pump_scheduled_ = true;
  pump_event_ = sim_.schedule_at(next, [this] {
    pump_scheduled_ = false;
    pump();
  });
}

// Drain the engine as far as the simulator allows. Any instant strictly
// before the next foreign simulator event is safe to process speculatively
// (nothing can inject packets before then), and the current instant is
// always safe because this call *is* the event running at now(). Completion
// batches interrupt the drain so callbacks fire at their true virtual time.
void PacketTransport::pump() {
  for (;;) {
    const TimeNs next = engine_.next_time();
    if (next == kTimeInf) return;
    const TimeNs now = sim_.now();
    const TimeNs horizon = sim_.next_time();
    TimeNs limit = kTimeInf;
    if (horizon != kTimeInf) {
      limit = horizon - 1 > now ? horizon - 1 : now;
    }
    if (next > limit) {
      ensure_pump();
      return;
    }
    const std::vector<Completion>& comps = engine_.advance(limit);
    if (comps.empty()) continue;  // drained to the limit; re-check horizon
    batch_ = comps;               // copy: callbacks may re-enter the engine
    const TimeNs tc = batch_.front().at;
    if (tc <= now) {
      dispatch();
      continue;
    }
    // The batch lies ahead of now() (speculative lookahead): deliver it at
    // its true instant. No event of any kind exists in (now, tc), so the
    // batch cannot be invalidated before the dispatch fires.
    sim_.schedule_at(tc, [this] {
      dispatch();
      pump();
    });
    return;
  }
}

void PacketTransport::dispatch() {
  // Indexed loop with recs_ re-accessed per iteration: completion callbacks
  // may start new flows re-entrantly and grow recs_.
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const Completion c = batch_[i];
    FlowRec& r = recs_[static_cast<std::size_t>(c.flow)];
    auto cb = std::move(r.on_complete);
    const net::FlowId id = r.id;
    const TimeNs extra = r.extra_delay;  // r dangles once cb reallocates recs_
    const TimeNs done = c.at + extra;
    if (!cb) continue;
    if (extra == 0) {
      cb(id, done);
    } else {
      sim_.schedule_at(done, [cb = std::move(cb), id, done] { cb(id, done); });
    }
  }
  batch_.clear();
}

std::unique_ptr<net::Transport> make_transport(net::NetBackend backend,
                                               eventsim::Simulator& sim,
                                               const net::Network& net,
                                               const PacketConfig& pcfg) {
  switch (backend) {
    case net::NetBackend::kAnalytic:
      return std::make_unique<net::AnalyticTransport>(sim, net);
    case net::NetBackend::kFlow:
      return std::make_unique<net::FlowSim>(sim, net);
    case net::NetBackend::kPacket:
      return std::make_unique<PacketTransport>(sim, net, pcfg);
  }
  return std::make_unique<net::FlowSim>(sim, net);
}

}  // namespace mixnet::pkt
