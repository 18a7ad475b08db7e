#include "net/transport.h"

#include <stdexcept>

namespace mixnet::net {

void check_flow_spec(const FlowSpec& spec, const char* who) {
  if ((spec.src == spec.dst) == spec.path.empty()) return;
  throw std::invalid_argument(
      std::string(who) + ": flow " + std::to_string(spec.src) + " -> " +
      std::to_string(spec.dst) + " has a path of " +
      std::to_string(spec.path.size()) +
      " links; the path must be empty iff src == dst");
}

const char* to_string(NetBackend b) {
  switch (b) {
    case NetBackend::kAnalytic: return "analytic";
    case NetBackend::kFlow: return "flow";
    case NetBackend::kPacket: return "packet";
  }
  return "?";
}

bool parse_net_backend(const std::string& s, NetBackend* out) {
  if (s == "analytic") { *out = NetBackend::kAnalytic; return true; }
  if (s == "flow") { *out = NetBackend::kFlow; return true; }
  if (s == "packet") { *out = NetBackend::kPacket; return true; }
  return false;
}

FlowId AnalyticTransport::start_flow(FlowSpec spec) {
  check_flow_spec(spec, "net::AnalyticTransport::start_flow");
  const FlowId id = next_id_++;
  TimeNs done = sim_.now() + spec.extra_delay;
  if (!spec.path.empty()) {
    Bps bottleneck = -1.0;
    for (const LinkId lid : spec.path) {
      const Link& l = net_.link(lid);
      done += l.delay;
      const Bps cap = l.up ? l.capacity : 0.0;
      if (bottleneck < 0.0 || cap < bottleneck) bottleneck = cap;
    }
    const TimeNs tx = transmission_time(spec.size, bottleneck);
    done = tx >= kTimeInf ? kTimeInf : done + tx;
  }
  if (spec.on_complete) {
    sim_.schedule_at(done, [cb = std::move(spec.on_complete), id, done] {
      cb(id, done);
    });
  }
  return id;
}

}  // namespace mixnet::net
