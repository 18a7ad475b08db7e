// Discrete-event simulation kernel.
//
// A Simulator owns the virtual clock and an event queue. Events are arbitrary
// callbacks scheduled for a future instant; ties are broken by insertion
// order so simulations are fully deterministic. All higher layers (flow
// simulator, training simulator, topology controllers) share one Simulator.
//
// Storage is an arena + free list (DESIGN.md §13): callbacks live in
// recycled pool slots, and the heap orders 24-byte POD entries
// {time, seq, slot, generation} -- no std::function moves during sift-up/
// down and no per-event allocation once the pool is warm. EventId handles
// pack (slot, generation); a slot's generation is bumped every time it
// retires, so a stale handle (or a stale heap entry) from a previous
// occupant can never cancel or fire the current one (ABA-safe, regression-
// tested in tests/eventsim_test.cc). The global `seq` counter preserves the
// fire order of same-instant events exactly as the old monotone-id queue
// did.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"

namespace mixnet::eventsim {

/// Handle used to cancel a scheduled event. Packed (slot+1, generation);
/// 0 is never a valid handle.
using EventId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimeNs now() const { return now_; }

  /// Schedule `fn` at absolute time `t`. Throws std::logic_error, naming
  /// both times, if t < now().
  EventId schedule_at(TimeNs t, std::function<void()> fn);

  /// Schedule `fn` after a relative delay.
  EventId schedule_after(TimeNs delay, std::function<void()> fn);

  /// Cancel a pending event; returns false if already fired or cancelled.
  bool cancel(EventId id);

  /// Run events until the queue drains. Returns number of events processed.
  std::size_t run();

  /// Run events with timestamp <= t, then set now() = t.
  std::size_t run_until(TimeNs t);

  /// Process exactly one event if available; returns false on empty queue.
  bool step();

  /// Timestamp of the earliest live event, or kTimeInf when the queue is
  /// empty. Pops stale heap entries off the top (lazy deletion) but never
  /// fires anything and never advances now().
  TimeNs next_time();

  bool empty() const { return live_events_ == 0; }
  std::size_t pending() const { return live_events_; }

 private:
  /// POD heap entry: min-ordered by (time, seq). seq is globally monotone,
  /// so same-instant events fire in scheduling order.
  struct HeapEntry {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// Arena slot. `gen` advances every retirement (fire or cancel), which
  /// invalidates both outstanding EventIds and lazily-deleted heap entries
  /// pointing at a previous occupant.
  struct Node {
    std::function<void()> fn;
    std::uint32_t gen = 1;
    bool live = false;
  };

  static EventId pack(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }

  void heap_push(HeapEntry e);
  void heap_pop();
  void retire(std::uint32_t slot);  // fn cleared/moved out by the caller
  bool pop_one();

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Node> pool_;
  std::vector<std::uint32_t> free_;  // retired slots available for reuse
};

}  // namespace mixnet::eventsim
