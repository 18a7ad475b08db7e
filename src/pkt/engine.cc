#include "pkt/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mixnet::pkt {

Engine::Engine(const net::Network& net, PacketConfig cfg)
    : net_(net), cfg_(cfg) {
  rebucket(kMinSpan);
  std::int64_t k = 1;
  const std::int64_t want =
      16 * static_cast<std::int64_t>(std::max(cfg_.window_packets, 1));
  while (k < want && k < (std::int64_t{1} << 30)) k <<= 1;
  sample_mask_ = static_cast<std::int32_t>(k - 1);
}

PktFlowId Engine::add_flow(Bytes size, const std::vector<net::LinkId>& path,
                           TimeNs now) {
  // Per-flow checks, kept in Release: a path of 32768+ hops would wrap the
  // 16-bit hop index and read before the flow's slice of the path pool.
  if (path.empty() || path.size() >= 32768) {
    throw std::invalid_argument("pkt::Engine::add_flow: path has " +
                                std::to_string(path.size()) +
                                " hops; need 1..32767");
  }
  if (!(size > 0.0)) {
    throw std::invalid_argument("pkt::Engine::add_flow: size " +
                                std::to_string(size) + " is not positive");
  }
  if (base_ >= 0 && now < base_) {
    throw std::invalid_argument("pkt::Engine::add_flow: now " +
                                std::to_string(now) +
                                " precedes the first flow's start " +
                                std::to_string(base_));
  }
  if (base_ < 0) base_ = now;
  const PktFlowId f = static_cast<PktFlowId>(flows_.size());
  FlowState fs;
  fs.size = size;
  fs.path_begin = static_cast<std::int32_t>(path_pool_.size());
  fs.path_len = static_cast<std::int32_t>(path.size());
  flows_.push_back(fs);
  path_pool_.insert(path_pool_.end(), path.begin(), path.end());
  for (const net::LinkId lid : path) ensure_link(lid);
  have_saved_ = false;
  // An idle engine's scan cursor may be far behind `now`; catching it up
  // costs nothing (there is nothing to scan past) and keeps the new events
  // within one wheel span of the cursor.
  if (wheel_live_ == 0 && heap_.empty()) wheel_pos_ = now - base_;
  inject(f, now - base_);
  return f;
}

TimeNs Engine::next_time() const {
  TimeNs best = kTimeInf;
  if (!heap_.empty()) best = base_ + ev_time(heap_[0]);
  if (wheel_live_ > 0) {
    const TimeNs t = base_ + wheel_scan();
    best = t < best ? t : best;
  }
  return best;
}

const std::vector<Completion>& Engine::advance(TimeNs limit) {
  completions_.clear();
  const TimeNs rel_limit = limit >= kTimeInf ? kTimeInf : limit - base_;
  while (completions_.empty()) {
    if (wheel_live_ == 0) {
      // Every pending event waits in the overflow heap (a link so slow
      // that one MTU outlasts the span cap): jump the cursor to the heap
      // head. That instant is processed right below, so the cursor still
      // never passes an unprocessed instant.
      if (heap_.empty() || ev_time(heap_[0]) > rel_limit) break;
      wheel_pos_ = ev_time(heap_[0]);
    }
    // Overflow events whose window the cursor has reached drop into the
    // wheel so the instant below gathers every arrival at its time.
    while (!heap_.empty() &&
           ev_time(heap_[0]) - wheel_pos_ < static_cast<TimeNs>(mask_) + 1) {
      const std::uint64_t ev = heap_pop();
      wheel_place(ev_time(ev), ev_slot(ev));
    }
    const TimeNs t = wheel_scan();
    if (t > rel_limit) break;
    // The cursor only ever advances to a *processed* instant: add_flow()
    // injections at later times must still land at or after it.
    wheel_pos_ = t;
    const std::size_t b = static_cast<std::size_t>(t) & mask_;
    const std::int32_t chain = bucket_[b];
    bucket_[b] = -1;
    bitmap_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    if (slab_[chain].next < 0) {
      // Fast path: a lone arrival — by far the common case — needs no
      // gather and no sort.
      --wheel_live_;
      refill_.clear();
      process_arrival(chain, t);
      for (const PktFlowId f : refill_) inject(f, t);
    } else {
      keyed_.clear();
      std::int32_t s = chain;
      while (s >= 0) {
        const std::int32_t nx = slab_[s].next;
        gather_sorted(s);
        s = nx;
        --wheel_live_;
      }
      process_instant(t);
    }
    if (sample_due_) {
      sample_due_ = false;
      if (completions_.empty()) sample(t, rel_limit);
    }
  }
  if (!completions_.empty()) {
    // A completion ends a period: the finished flow's share of the
    // schedule cannot repeat.
    have_saved_ = false;
    while (static_cast<std::size_t>(ref_flow_) < flows_.size() &&
           flows_[static_cast<std::size_t>(ref_flow_)].done) {
      ++ref_flow_;
    }
  }
  return completions_;
}

// One event instant: keyed_ holds every packet arriving at time t, sorted
// by content key. Route or deliver each in that order, then refill the
// flow windows those deliveries freed, so FIFO order at time t is
// (transiting packets, then freshly injected ones).
void Engine::process_instant(TimeNs t) {
  refill_.clear();
  for (const auto& [key, slot] : keyed_) process_arrival(slot, t);
  for (const PktFlowId f : refill_) inject(f, t);
}

// Bucket chains and the heap order ties by slot index, which is an
// allocation accident. Insert into keyed_ sorted by content key — (flow,
// per-flow sequence) — so the order in which tied arrivals are processed
// is a function of the traffic alone. Tie groups are tiny (a handful of
// phase-locked flows), so an inline insertion sort beats std::sort's fixed
// overhead by a wide margin.
void Engine::gather_sorted(std::int32_t slot) {
  const PacketSlot& p = slab_[slot];
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.flow))
       << 32) |
      static_cast<std::uint32_t>(p.seq);
  std::size_t i = keyed_.size();
  keyed_.emplace_back();
  while (i > 0 && keyed_[i - 1].first > key) {
    keyed_[i] = keyed_[i - 1];
    --i;
  }
  keyed_[i] = {key, slot};
}

// The packet just crossed the wire of path[hop]: it moves on — onto the
// next link, or out of the network (window credit back, completion on the
// last packet).
void Engine::process_arrival(std::int32_t slot, TimeNs t) {
  PacketSlot& p = slab_[slot];
  const PktFlowId f = p.flow;
  FlowState& fs = flows_[static_cast<std::size_t>(f)];
  const std::int32_t hop = p.hop;
  ++arrivals_;
  const std::int32_t base = fs.path_begin;
  if (hop + 1 < fs.path_len) {
    p.hop = static_cast<std::int16_t>(hop + 1);
    schedule(path_pool_[static_cast<std::size_t>(base + hop + 1)], slot, t);
    return;
  }
  ++packets_delivered_;
  --fs.in_flight;
  if (f == ref_flow_ && (p.seq & sample_mask_) == 0) sample_due_ = true;
  if (p.last && !fs.done) {
    fs.done = 1;
    completions_.push_back(Completion{f, base_ + t});
  }
  p.live = 0;
  slab_.release(slot);
  refill_.push_back(f);
}

void Engine::inject(PktFlowId f, TimeNs t) {
  FlowState& fs = flows_[static_cast<std::size_t>(f)];
  const net::LinkId first =
      path_pool_[static_cast<std::size_t>(fs.path_begin)];
  while (!fs.done && fs.in_flight < cfg_.window_packets &&
         fs.injected < fs.size) {
    const Bytes remaining = fs.size - fs.injected;
    const std::int32_t slot = slab_.alloc();
    PacketSlot& p = slab_[slot];
    p.size = remaining < cfg_.mtu_bytes ? remaining : cfg_.mtu_bytes;
    p.flow = f;
    p.seq = fs.next_seq++;
    p.hop = 0;
    p.next = -1;
    // Float-tolerant "last packet" test, same epsilon as the net::PacketSim
    // test oracle.
    p.last = (p.size >= remaining - 1e-9) ? 1 : 0;
    p.live = 1;
    fs.injected += p.size;
    ++fs.in_flight;
    schedule(first, slot, t);
  }
}

// A packet joining the FIFO queue of `lid` at time `t` has a departure
// fixed then and there by the recurrence max(queue arrival, link clear) +
// serialization: nothing that happens later can change it, so the arrival
// event at the far end is scheduled eagerly and the link needs no queue
// structure at all — it IS its clear clock.
void Engine::schedule(net::LinkId lid, std::int32_t slot, TimeNs t) {
  LinkState& ls = links_[static_cast<std::size_t>(lid)];
  PacketSlot& p = slab_[slot];
  const TimeNs start = t > ls.clear ? t : ls.clear;
  // All but the final packet of a flow are exactly one MTU; their
  // serialization time is precomputed per link.
  const TimeNs tx = p.size == cfg_.mtu_bytes
                        ? ls.tx_mtu
                        : transmission_time(p.size, ls.cap);
  const TimeNs depart = start + tx;
  const TimeNs at = depart + ls.delay;
  // An arrival beyond the packable 41-bit relative horizon means the link
  // is dead or pathologically slow (a single packet serializing for >36
  // virtual minutes): the packet — and everything queued behind it —
  // simply never arrives, mirroring the fluid backend's kTimeInf
  // completion for down paths. No event is scheduled.
  if (at >= kMaxRel) {
    ls.clear = kTimeInf;
    p.arrived = kMaxRel;
    return;
  }
  ls.clear = depart;
  wheel_insert(at, slot);
  ++packets_forwarded_;
}

void Engine::ensure_link(net::LinkId lid) {
  const auto need = static_cast<std::size_t>(lid) + 1;
  if (links_.size() < need) links_.resize(need);
  LinkState& ls = links_[static_cast<std::size_t>(lid)];
  if (ls.tx_mtu >= 0) return;  // read when a flow first crossed it
  touched_links_.push_back(lid);
  const net::Link& link = net_.link(lid);
  ls.cap = link.capacity;
  ls.delay = link.delay;
  ls.tx_mtu = transmission_time(cfg_.mtu_bytes, link.capacity);
  update_horizon(ls);
}

void Engine::update_horizon(const LinkState& ls) {
  // Warm-start the wheel at one hop's worth of time — a lower bound on the
  // spread wheel_insert() will observe. Dead or down links (packets on
  // them take the kMaxRel path in schedule()) must not inflate it.
  if (ls.cap <= 0.0 || ls.tx_mtu >= kMaxRel - ls.delay) return;
  const TimeNs h = ls.tx_mtu + ls.delay;
  if (h <= horizon_) return;
  horizon_ = h;
  std::size_t span = bucket_.size();
  while (static_cast<TimeNs>(span) <= horizon_ && span < kMaxSpan) span <<= 1;
  if (span > bucket_.size()) rebucket(span);
}

// The engine after instant t, in a form that two instants a period apart
// share exactly. Link clocks at or before t are equivalent to t (a packet
// enqueued later starts at max(now, clear) = now), so they clamp to 0. A
// flow is FIFO on one path, so its in-flight seqs are the contiguous range
// [next_seq - in_flight, next_seq) and a counting sort over the slab puts
// the packets in (flow, seq) order: O(flows + links + slots), no sort.
void Engine::take_snapshot(TimeNs t, Snapshot& s) {
  s.t = t;
  s.max_offset = 0;
  s.forwarded = packets_forwarded_;
  s.delivered = packets_delivered_;
  s.state.clear();
  s.next_seq.clear();
  s.injected.clear();
  std::vector<std::size_t> first_pos;  // flow -> its oldest packet's place
  std::size_t live = 0;
  for (const FlowState& fs : flows_) {
    s.state.push_back(std::int64_t{fs.in_flight} * 2 + fs.done);
    s.next_seq.push_back(fs.next_seq);
    s.injected.push_back(fs.injected);
    first_pos.push_back(live);
    live += static_cast<std::size_t>(fs.in_flight);
  }
  for (const net::LinkId lid : touched_links_) {
    const TimeNs clear = links_[static_cast<std::size_t>(lid)].clear;
    const TimeNs off = clear >= kTimeInf ? -1 : std::max<TimeNs>(clear - t, 0);
    s.max_offset = std::max(s.max_offset, off);
    s.state.push_back(off);
  }
  const std::size_t base = s.state.size();
  s.state.resize(base + 2 * live);
  const auto slots = static_cast<std::int32_t>(slab_.capacity());
  for (std::int32_t slot = 0; slot < slots; ++slot) {
    const PacketSlot& p = slab_[slot];
    if (!p.live) continue;
    const FlowState& fs = flows_[static_cast<std::size_t>(p.flow)];
    const std::int32_t i = p.seq - (fs.next_seq - fs.in_flight);
    if (i < 0 || i >= fs.in_flight) {
      throw std::logic_error("pkt::Engine: packet " + std::to_string(p.seq) +
                             " of flow " + std::to_string(p.flow) +
                             " is outside its in-flight window");
    }
    const std::size_t at =
        base + 2 * (first_pos[static_cast<std::size_t>(p.flow)] +
                    static_cast<std::size_t>(i));
    s.state[at] = std::int64_t{p.hop} |
                  std::int64_t{p.size == cfg_.mtu_bytes} << 16 |
                  std::int64_t{p.last} << 17;
    const TimeNs off = p.arrived >= kMaxRel ? -1 : p.arrived - t;
    s.max_offset = std::max(s.max_offset, off);
    s.state[at + 1] = off;
  }
}

// Brent's cycle detection over the sampled snapshots: saved_ is the
// tortoise, replaced at power-of-two distances, and every new sample is
// compared with it.
void Engine::sample(TimeNs t, TimeNs rel_limit) {
  if (!have_saved_) {
    take_snapshot(t, saved_);
    have_saved_ = true;
    brent_power_ = 1;
    brent_lam_ = 0;
    return;
  }
  take_snapshot(t, current_);
  ++brent_lam_;
  if (current_.state == saved_.state && fast_forward(rel_limit)) {
    have_saved_ = false;
    return;
  }
  if (brent_lam_ == brent_power_) {
    std::swap(saved_, current_);
    brent_power_ *= 2;
    brent_lam_ = 0;
  }
}

// saved_ (instant t0) and current_ (instant t1) are equal snapshots, so the
// engine will repeat the last period P = t1 - t0 for as long as nothing
// outside the snapshot intervenes: a flow's last packets, the caller's
// limit, the 41-bit time range. Jump k periods within those bounds; return
// false (and change nothing) when no whole period fits.
bool Engine::fast_forward(TimeNs rel_limit) {
  const Bytes mtu = cfg_.mtu_bytes;
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (!(mtu > 0.0 && mtu < kExact && std::floor(mtu) == mtu)) return false;
  const TimeNs t1 = current_.t;
  // > 0: samples are distinct deliveries of one flow, which its last link
  // serializes at least 1 ns apart.
  const TimeNs period = t1 - saved_.t;
  std::int64_t k = (kMaxRel - 1 - t1 - current_.max_offset) / period;
  if (rel_limit < kTimeInf) k = std::min(k, (rel_limit - t1) / period);
  std::vector<std::int64_t> seq_step(flows_.size());  // per-period seq delta
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    const FlowState& fs = flows_[f];
    const std::int64_t d = current_.next_seq[f] - saved_.next_seq[f];
    seq_step[f] = d;
    if (fs.done) continue;
    // Only whole MTUs may have been injected in the period.
    const Bytes step = static_cast<double>(d) * mtu;
    if (current_.injected[f] - saved_.injected[f] != step) return false;
    if (d == 0) continue;  // every packet stranded on a dead link
    // Stay 2 periods + 1 MTU short of the last packet, keep `injected`
    // exact and seqs in 31 bits. k < 2^41, so it is exact as a double.
    const double room = fs.size - fs.injected - 2.0 * step - mtu;
    const double k_max = std::min(std::floor(room / step),
                                  std::floor((kExact - fs.injected) / step));
    if (!(k_max >= 1.0)) return false;
    if (k_max < static_cast<double>(k)) k = static_cast<std::int64_t>(k_max);
    k = std::min(k, (std::int64_t{INT32_MAX} - fs.next_seq) / d);
  }
  if (k < 1) return false;

  const TimeNs shift = k * period;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    flows_[f].next_seq += static_cast<std::int32_t>(k * seq_step[f]);
    flows_[f].injected += static_cast<double>(k * seq_step[f]) * mtu;
  }
  for (const net::LinkId lid : touched_links_) {
    LinkState& ls = links_[static_cast<std::size_t>(lid)];
    if (ls.clear > t1 && ls.clear < kTimeInf) ls.clear += shift;
  }
  // Every pending packet is re-seated, so emptying the buckets that hold
  // any of them empties the wheel.
  std::vector<std::int32_t> pending;
  const auto slots = static_cast<std::int32_t>(slab_.capacity());
  for (std::int32_t slot = 0; slot < slots; ++slot) {
    PacketSlot& p = slab_[slot];
    if (!p.live) continue;
    p.seq += static_cast<std::int32_t>(
        k * seq_step[static_cast<std::size_t>(p.flow)]);
    if (p.arrived >= kMaxRel) continue;
    const std::size_t b = static_cast<std::size_t>(p.arrived) & mask_;
    bucket_[b] = -1;
    bitmap_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    pending.push_back(slot);
  }
  heap_.clear();
  wheel_live_ = 0;
  wheel_pos_ = t1 + shift;
  for (const std::int32_t slot : pending) {
    wheel_insert(slab_[slot].arrived + shift, slot);
  }
  packets_forwarded_ += static_cast<std::uint64_t>(k) *
                        (current_.forwarded - saved_.forwarded);
  packets_delivered_ += static_cast<std::uint64_t>(k) *
                        (current_.delivered - saved_.delivered);
  ++fast_forwards_;
  return true;
}

void Engine::wheel_insert(TimeNs at, std::int32_t slot) {
  // The event time doubles as the rebucketing key when the wheel grows.
  slab_[slot].arrived = at;
  if (at - wheel_pos_ >= static_cast<TimeNs>(mask_) + 1) {
    // The wheel self-sizes to the event spread it actually sees (the
    // per-link queue backlog, in practice): grow until the event fits or
    // the cap is reached, then spill to the overflow heap.
    std::size_t span = mask_ + 1;
    while (span < kMaxSpan &&
           at - wheel_pos_ >= static_cast<TimeNs>(span)) {
      span <<= 1;
    }
    if (at - wheel_pos_ >= static_cast<TimeNs>(span)) {
      heap_push(pack(at, slot));
      return;
    }
    rebucket(span);
  }
  wheel_place(at, slot);
}

void Engine::wheel_place(TimeNs at, std::int32_t slot) {
  const std::size_t b = static_cast<std::size_t>(at) & mask_;
  slab_[slot].next = bucket_[b];
  bucket_[b] = slot;
  bitmap_[b >> 6] |= std::uint64_t{1} << (b & 63);
  ++wheel_live_;
}

TimeNs Engine::wheel_scan() const {
  // Find the first occupied bucket at or after the cursor. wheel_live_ > 0
  // and the window invariant guarantee a set bit within one lap.
  const std::size_t nwords = bitmap_.size();
  std::size_t w = (static_cast<std::size_t>(wheel_pos_) & mask_) >> 6;
  TimeNs wbase = wheel_pos_ - (wheel_pos_ & 63);
  std::uint64_t word =
      bitmap_[w] & (~std::uint64_t{0} << (wheel_pos_ & 63));
  while (word == 0) {
    w = (w + 1) & (nwords - 1);
    wbase += 64;
    word = bitmap_[w];
  }
  return wbase + static_cast<TimeNs>(__builtin_ctzll(word));
}

void Engine::rebucket(std::size_t span) {
  const std::vector<std::int32_t> old = std::move(bucket_);
  bucket_.assign(span, -1);
  bitmap_.assign(span >> 6, 0);
  mask_ = span - 1;
  wheel_live_ = 0;
  // Live events keep their absolute times (stored in the descriptor); only
  // the bucket mapping changes. The new window is a superset of the old,
  // so every event stays in range. Overflow-heap events are untouched.
  for (const std::int32_t head : old) {
    std::int32_t s = head;
    while (s >= 0) {
      const std::int32_t nx = slab_[s].next;
      wheel_place(slab_[s].arrived, s);
      s = nx;
    }
  }
}

void Engine::heap_push(std::uint64_t ev) {
  heap_.push_back(ev);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (heap_[parent] <= ev) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

// Bottom-up deletion: the hole left at the root walks down along min
// children, then the displaced last element bubbles up, which almost
// always terminates immediately because it came from the bottom.
std::uint64_t Engine::heap_pop() {
  const std::uint64_t top = heap_[0];
  const std::uint64_t last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first_child = (hole << 2) + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        best = heap_[c] < heap_[best] ? c : best;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> 2;
      if (last >= heap_[parent]) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = last;
  }
  return top;
}

}  // namespace mixnet::pkt
