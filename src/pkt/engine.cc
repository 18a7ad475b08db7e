#include "pkt/engine.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace mixnet::pkt {

Engine::Engine(const net::Network& net, PacketConfig cfg)
    : net_(net), cfg_(cfg) {
  rebucket(kMinSpan);
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
      continue;
    }
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
  const std::int32_t base = fs.path_begin;
  if (hop + 1 < fs.path_len) {
    p.hop = static_cast<std::int16_t>(hop + 1);
    schedule(path_pool_[static_cast<std::size_t>(base + hop + 1)], slot, t);
    return;
  }
  ++packets_delivered_;
  --fs.in_flight;
  if (p.last && !fs.done) {
    fs.done = 1;
    completions_.push_back(Completion{f, base_ + t});
  }
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
    assert(slot < kMaxSlots);
    PacketSlot& p = slab_[slot];
    p.size = remaining < cfg_.mtu_bytes ? remaining : cfg_.mtu_bytes;
    p.flow = f;
    p.seq = fs.next_seq++;
    p.hop = 0;
    p.next = -1;
    // Float-tolerant "last packet" test, same epsilon as net::PacketSim.
    p.last = (p.size >= remaining - 1e-9) ? 1 : 0;
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
