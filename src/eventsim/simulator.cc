#include "eventsim/simulator.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace mixnet::eventsim {

void Simulator::heap_push(HeapEntry e) {
  // Standard sift-up on (time, seq); entries are POD so moves are memcpy.
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t p = (i - 1) / 2;
    if (heap_[p].time < heap_[i].time ||
        (heap_[p].time == heap_[i].time && heap_[p].seq < heap_[i].seq))
      break;
    std::swap(heap_[p], heap_[i]);
    i = p;
  }
}

void Simulator::heap_pop() {
  if (heap_.empty())
    throw std::logic_error("eventsim::Simulator::heap_pop: the event heap is empty");
  heap_.front() = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t l = 2 * i + 1, r = 2 * i + 2;
    std::size_t m = i;
    if (l < n && (heap_[l].time < heap_[m].time ||
                  (heap_[l].time == heap_[m].time && heap_[l].seq < heap_[m].seq)))
      m = l;
    if (r < n && (heap_[r].time < heap_[m].time ||
                  (heap_[r].time == heap_[m].time && heap_[r].seq < heap_[m].seq)))
      m = r;
    if (m == i) break;
    std::swap(heap_[i], heap_[m]);
    i = m;
  }
}

void Simulator::retire(std::uint32_t slot) {
  Node& n = pool_[slot];
  n.live = false;
  ++n.gen;  // invalidates outstanding EventIds and stale heap entries
  free_.push_back(slot);
}

EventId Simulator::schedule_at(TimeNs t, std::function<void()> fn) {
  // An event in the past would fire after later ones and move the clock
  // backwards: reject it in every build.
  if (t < now_)
    throw std::logic_error("Simulator::schedule_at: time " + std::to_string(t) +
                           " is before now() = " + std::to_string(now_));
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Node& n = pool_[slot];
  n.fn = std::move(fn);
  n.live = true;
  heap_push(HeapEntry{t, next_seq_++, slot, n.gen});
  ++live_events_;
  return pack(slot, n.gen);
}

EventId Simulator::schedule_after(TimeNs delay, std::function<void()> fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0) return false;  // 0 and small integers are never valid handles
  const std::uint64_t slot = hi - 1;
  if (slot >= pool_.size()) return false;
  Node& n = pool_[static_cast<std::uint32_t>(slot)];
  const auto gen = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  if (!n.live || n.gen != gen) return false;  // fired, cancelled, or reused
  n.fn = nullptr;
  retire(static_cast<std::uint32_t>(slot));
  if (live_events_ > 0) --live_events_;
  return true;
}

bool Simulator::pop_one() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    heap_pop();
    Node& n = pool_[top.slot];
    if (!n.live || n.gen != top.gen) continue;  // lazily dropped
    // Retire *before* invoking: the callback may schedule new events that
    // legitimately reuse this slot (at a higher generation).
    auto fn = std::move(n.fn);
    n.fn = nullptr;
    retire(top.slot);
    --live_events_;
    now_ = top.time;
    fn();
    return true;
  }
  return false;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (pop_one()) ++n;
  return n;
}

std::size_t Simulator::run_until(TimeNs t) {
  std::size_t n = 0;
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Node& node = pool_[top.slot];
    if (!node.live || node.gen != top.gen) {
      heap_pop();
      continue;
    }
    if (top.time > t) break;
    if (pop_one()) ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

bool Simulator::step() { return pop_one(); }

TimeNs Simulator::next_time() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Node& node = pool_[top.slot];
    if (!node.live || node.gen != top.gen) {
      heap_pop();
      continue;
    }
    return top.time;
  }
  return kTimeInf;
}

}  // namespace mixnet::eventsim
