#include "net/flowsim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace mixnet::net {

namespace {
// Flows are considered complete when less than half a byte remains; fluid
// rates are real-valued so exact zero is not reachable in general.
constexpr Bytes kCompletionEps = 0.5;
}  // namespace

FlowSim::FlowSim(eventsim::Simulator& sim, const Network& net) : sim_(sim), net_(net) {}

FlowId FlowSim::start_flow(FlowSpec spec) {
  check_flow_spec(spec, "net::FlowSim::start_flow");
  const FlowId id = next_id_++;

  if (spec.path.empty()) {
    // Intra-node transfer: completes after fixed latency only. Stats are
    // credited when it completes, not now, so mid-sim queries stay honest.
    // No slot is allocated; the flow never enters the rate solver.
    id_to_slot_.push_back(kNoSlot);
    auto cb = std::move(spec.on_complete);
    const Bytes size = std::max<Bytes>(spec.size, 0.0);
    const TimeNs done = sim_.now() + spec.extra_delay + 1;
    sim_.schedule_at(done, [this, cb, id, done, size] {
      ++completed_;
      bytes_delivered_ += size;
      if (cb) cb(id, done);
    });
    return id;
  }

  advance_progress();
  const auto slot = static_cast<std::uint32_t>(remaining_.size());
  id_to_slot_.push_back(slot);
  TimeNs pd = 0;
  for (LinkId lid : spec.path) pd += net_.link(lid).delay;
  remaining_.push_back(std::max<Bytes>(spec.size, 0.0));
  rate_.push_back(0.0);
  size_.push_back(std::max<Bytes>(spec.size, 0.0));
  path_delay_.push_back(pd);
  extra_delay_.push_back(spec.extra_delay);
  path_off_.push_back(static_cast<std::uint32_t>(path_arena_.size()));
  path_len_.push_back(static_cast<std::uint32_t>(spec.path.size()));
  path_arena_.insert(path_arena_.end(), spec.path.begin(), spec.path.end());
  flow_id_.push_back(id);
  alive_.push_back(1);
  on_complete_.push_back(std::move(spec.on_complete));
  active_.push_back(slot);
  ++n_live_;

  add_flow_to_links(slot);
  dirty_ = true;
  schedule_commit();
  return id;
}

Bps FlowSim::flow_rate(FlowId id) {
  ensure_rates();
  if (id <= 0 || static_cast<std::size_t>(id) > id_to_slot_.size()) return 0.0;
  const std::uint32_t slot = id_to_slot_[static_cast<std::size_t>(id - 1)];
  if (slot == kNoSlot || !alive_[slot]) return 0.0;
  return rate_[slot];
}

void FlowSim::compact_active() {
  if (n_live_ == active_.size()) return;
  std::size_t w = 0;
  for (std::uint32_t slot : active_)
    if (alive_[slot]) active_[w++] = slot;
  active_.resize(w);
  assert(w == n_live_);
}

void FlowSim::advance_progress() {
  const TimeNs now = sim_.now();
  const double dt = ns_to_sec(now - last_progress_time_);
  if (dt > 0.0) {
    // Rates were solved when this interval began (the commit event runs
    // before virtual time can advance past a mutation instant).
    assert(!dirty_ || n_live_ == 0);
    compact_active();
    for (std::uint32_t slot : active_) {
      remaining_[slot] -= rate_[slot] * dt;
      if (remaining_[slot] < 0.0) remaining_[slot] = 0.0;
    }
  }
  last_progress_time_ = now;
}

void FlowSim::ensure_rates() {
  if (!dirty_) return;
  solve_rates();
  dirty_ = false;
}

void FlowSim::schedule_commit() {
  // One commit per mutation instant: a pending commit is always scheduled at
  // the current time (an older one would already have fired).
  if (commit_event_ != 0) return;
  commit_event_ = sim_.schedule_at(sim_.now(), [this] {
    commit_event_ = 0;
    ensure_rates();
    schedule_next_completion();
  });
}

void FlowSim::ensure_link_arrays() {
  const std::size_t n = net_.link_count();
  if (link_flow_count_.size() < n) {
    link_flow_count_.resize(n, 0);
    link_in_use_.resize(n, 0);
    rem_cap_.resize(n, 0.0);
    unfrozen_count_.resize(n, 0);
  }
}

void FlowSim::add_flow_to_links(std::uint32_t slot) {
  ensure_link_arrays();
  for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p) {
    const auto i = static_cast<std::size_t>(*p);
    if (++link_flow_count_[i] == 1 && !link_in_use_[i]) {
      link_in_use_[i] = 1;
      used_links_.push_back(*p);
    }
  }
}

void FlowSim::remove_flow_from_links(std::uint32_t slot) {
  for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p) {
    const auto i = static_cast<std::size_t>(*p);
    assert(link_flow_count_[i] > 0);
    --link_flow_count_[i];  // compacted out of used_links_ at the next solve
  }
}

void FlowSim::solve_rates() {
  // Progressive filling over the links actually in use. The used-link set is
  // maintained incrementally by start/completion; here only links
  // whose membership changed are (re)initialized, and links that lost their
  // last flow are compacted out.
  ensure_link_arrays();
  compact_active();
  std::size_t w = 0;
  for (LinkId lid : used_links_) {
    const auto i = static_cast<std::size_t>(lid);
    if (link_flow_count_[i] <= 0) {
      link_in_use_[i] = 0;
      continue;
    }
    used_links_[w++] = lid;
    unfrozen_count_[i] = 0;
  }
  used_links_.resize(w);

  // Unfrozen set, in insertion (FlowId) order so freeze batches -- and with
  // them the floating-point reduction order -- are independent of how flows
  // were hashed or completed.
  std::vector<std::uint32_t> unfrozen;
  unfrozen.reserve(active_.size());
  for (std::uint32_t slot : active_) {
    rate_[slot] = 0.0;
    bool stalled = false;
    for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p) {
      const Link& l = net_.link(*p);
      if (!l.up || l.capacity <= 0.0) {
        stalled = true;
        break;
      }
    }
    if (stalled) continue;  // rate stays 0 for the rest of the phase
    unfrozen.push_back(slot);
    for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p)
      ++unfrozen_count_[static_cast<std::size_t>(*p)];
  }
  for (LinkId lid : used_links_) {
    const auto i = static_cast<std::size_t>(lid);
    rem_cap_[i] = unfrozen_count_[i] > 0 ? net_.link(lid).capacity : 0.0;
  }

  while (!unfrozen.empty()) {
    // Bottleneck fair share across links still carrying unfrozen flows.
    double min_share = std::numeric_limits<double>::infinity();
    for (LinkId lid : used_links_) {
      const auto i = static_cast<std::size_t>(lid);
      if (unfrozen_count_[i] <= 0) continue;
      const double share = rem_cap_[i] / unfrozen_count_[i];
      min_share = std::min(min_share, share);
    }
    if (!std::isfinite(min_share)) break;
    if (min_share < 0.0) min_share = 0.0;

    // Freeze every flow crossing a bottleneck link at min_share.
    bool froze_any = false;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < unfrozen.size(); ++i) {
      const std::uint32_t slot = unfrozen[i];
      bool bottlenecked = false;
      for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p) {
        const auto li = static_cast<std::size_t>(*p);
        const double share = rem_cap_[li] / unfrozen_count_[li];
        if (share <= min_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) {
        unfrozen[keep++] = slot;
        continue;
      }
      rate_[slot] = min_share;
      for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p) {
        const auto li = static_cast<std::size_t>(*p);
        rem_cap_[li] -= min_share;
        if (rem_cap_[li] < 0.0) rem_cap_[li] = 0.0;
        --unfrozen_count_[li];
      }
      froze_any = true;
    }
    unfrozen.resize(keep);
    if (!froze_any) break;  // numerical guard; should not happen
  }
}

std::unordered_map<FlowId, Bps> FlowSim::reference_rates() const {
  // The original full re-solve: fresh dense working state sized to the whole
  // network, no incremental bookkeeping. Kept as the oracle the fast path is
  // validated against. Iterates flows in the same insertion order as the
  // fast path so a rate comparison is exact, not merely within tolerance.
  const std::size_t n_links = net_.link_count();
  std::vector<double> rem_cap(n_links, 0.0);
  std::vector<std::int32_t> unfrozen_count(n_links, 0);
  std::unordered_map<FlowId, Bps> rates;
  rates.reserve(n_live_);

  std::vector<std::uint32_t> unfrozen;
  unfrozen.reserve(n_live_);
  for (std::uint32_t slot : active_) {
    if (!alive_[slot]) continue;
    rates[flow_id_[slot]] = 0.0;
    bool stalled = false;
    for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p) {
      const Link& l = net_.link(*p);
      if (!l.up || l.capacity <= 0.0) {
        stalled = true;
        break;
      }
    }
    if (stalled) continue;
    unfrozen.push_back(slot);
    for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p)
      ++unfrozen_count[static_cast<std::size_t>(*p)];
  }
  std::vector<LinkId> active_links;
  for (std::size_t lid = 0; lid < n_links; ++lid) {
    if (unfrozen_count[lid] > 0) {
      rem_cap[lid] = net_.link(static_cast<LinkId>(lid)).capacity;
      active_links.push_back(static_cast<LinkId>(lid));
    }
  }

  while (!unfrozen.empty()) {
    double min_share = std::numeric_limits<double>::infinity();
    for (LinkId lid : active_links) {
      const auto i = static_cast<std::size_t>(lid);
      if (unfrozen_count[i] <= 0) continue;
      min_share = std::min(min_share, rem_cap[i] / unfrozen_count[i]);
    }
    if (!std::isfinite(min_share)) break;
    if (min_share < 0.0) min_share = 0.0;

    bool froze_any = false;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < unfrozen.size(); ++i) {
      const std::uint32_t slot = unfrozen[i];
      bool bottlenecked = false;
      for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p) {
        const auto li = static_cast<std::size_t>(*p);
        if (rem_cap[li] / unfrozen_count[li] <= min_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) {
        unfrozen[keep++] = slot;
        continue;
      }
      rates[flow_id_[slot]] = min_share;
      for (const LinkId* p = path_begin(slot); p != path_end(slot); ++p) {
        const auto li = static_cast<std::size_t>(*p);
        rem_cap[li] -= min_share;
        if (rem_cap[li] < 0.0) rem_cap[li] = 0.0;
        --unfrozen_count[li];
      }
      froze_any = true;
    }
    unfrozen.resize(keep);
    if (!froze_any) break;
  }
  return rates;
}

void FlowSim::schedule_next_completion() {
  if (pending_event_ != 0) {
    sim_.cancel(pending_event_);
    pending_event_ = 0;
  }
  TimeNs best = kTimeInf;
  for (std::uint32_t slot : active_) {
    if (!alive_[slot] || rate_[slot] <= 0.0) continue;
    // transmission_time clamps at kTimeInf, so an epsilon-small rate cannot
    // overflow the double->TimeNs conversion; "never" flows are skipped.
    const TimeNs dt = transmission_time(std::max(remaining_[slot], 0.0), rate_[slot]);
    if (dt >= kTimeInf) continue;
    best = std::min(best, sim_.now() + dt);
  }
  if (best >= kTimeInf) return;
  pending_event_ = sim_.schedule_at(best, [this] {
    pending_event_ = 0;
    handle_completion_event();
  });
}

void FlowSim::handle_completion_event() {
  advance_progress();
  // Collect all flows that are done at this instant (symmetric collectives
  // finish together; batching avoids N redundant rate solves).
  std::vector<std::uint32_t> done;
  for (std::uint32_t slot : active_) {
    if (remaining_[slot] > kCompletionEps) continue;
    remove_flow_from_links(slot);
    alive_[slot] = 0;
    --n_live_;
    done.push_back(slot);
  }
  for (std::uint32_t slot : done) {
    // Deliver at arrival time (propagation tail), preserving causality; the
    // completion/byte counters are credited at that same instant so mid-sim
    // monitor queries never see bytes that have not arrived yet.
    const TimeNs arrival = sim_.now() + path_delay_[slot] + extra_delay_[slot];
    auto cb = std::move(on_complete_[slot]);
    on_complete_[slot] = nullptr;
    const FlowId fid = flow_id_[slot];
    const Bytes size = size_[slot];
    sim_.schedule_at(arrival, [this, cb, fid, arrival, size] {
      ++completed_;
      bytes_delivered_ += size;
      if (cb) cb(fid, arrival);
    });
  }
  if (!done.empty()) dirty_ = true;
  ensure_rates();
  schedule_next_completion();
}

}  // namespace mixnet::net
