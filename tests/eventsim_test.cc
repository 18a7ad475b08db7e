#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "eventsim/simulator.h"

namespace mixnet::eventsim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule_at(100, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  TimeNs seen = -1;
  sim.schedule_at(50, [&] {
    sim.schedule_after(25, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 75);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidIdFails) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(999));
}

TEST(Simulator, NextTimePeeksEarliestPendingEvent) {
  Simulator sim;
  EXPECT_EQ(sim.next_time(), kTimeInf);  // empty calendar
  sim.schedule_at(40, [] {});
  const EventId early = sim.schedule_at(10, [] {});
  EXPECT_EQ(sim.next_time(), 10);
  // Cancelling the earliest event must skip its tombstone, not report it.
  sim.cancel(early);
  EXPECT_EQ(sim.next_time(), 40);
  sim.run();
  EXPECT_EQ(sim.next_time(), kTimeInf);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<TimeNs> fired;
  for (TimeNs t : {10, 20, 30, 40})
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.run_until(25), 2u);
  EXPECT_EQ(sim.now(), 25);
  EXPECT_EQ(fired, (std::vector<TimeNs>{10, 20}));
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 9);
}

TEST(Simulator, PendingCountTracksLiveEvents) {
  Simulator sim;
  EXPECT_TRUE(sim.empty());
  EventId a = sim.schedule_at(1, [] {});
  sim.schedule_at(2, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, StepProcessesExactlyOne) {
  Simulator sim;
  int n = 0;
  sim.schedule_at(1, [&] { ++n; });
  sim.schedule_at(2, [&] { ++n; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(n, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ScheduleAtRejectsATimeBeforeNow) {
  // Checked in every build, Release included: a past event would fire out
  // of order and move the clock backwards.
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 100);
  try {
    sim.schedule_at(99, [] {});
    FAIL() << "no throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("99"), std::string::npos) << what;
    EXPECT_NE(what.find("100"), std::string::npos) << what;
  }
  EXPECT_TRUE(sim.empty());
  EXPECT_NO_THROW(sim.schedule_at(100, [] {}));  // now() itself is fine
  EXPECT_EQ(sim.run(), 1u);
}

// --- Arena/free-list pool regressions (DESIGN.md §13). -----------------------

TEST(Simulator, HandlesAreNeverZero) {
  Simulator sim;
  // FlowSim uses EventId 0 as its "no event scheduled" sentinel; a pool slot
  // must never pack to it.
  for (int i = 0; i < 100; ++i) {
    const EventId id = sim.schedule_at(i, [] {});
    EXPECT_NE(id, 0u);
    if (i % 2 == 0) sim.cancel(id);  // force slot recycling
  }
  sim.run();
}

TEST(Simulator, RecycledSlotRejectsStaleHandle) {
  Simulator sim;
  bool first = false, second = false;
  const EventId a = sim.schedule_at(10, [&] { first = true; });
  ASSERT_TRUE(sim.cancel(a));
  // The slot is recycled for the next event at a new generation...
  const EventId b = sim.schedule_at(20, [&] { second = true; });
  EXPECT_NE(a, b);
  // ...so the stale handle must not cancel the new occupant (ABA).
  EXPECT_FALSE(sim.cancel(a));
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Simulator, StaleHandleOfFiredEventRejectedAfterReuse) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule_at(1, [&] { ++fired; });
  sim.run();  // fires and retires a's slot
  const EventId b = sim.schedule_at(2, [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(a));  // same slot, older generation
  EXPECT_TRUE(sim.cancel(b));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, PoolChurnKeepsOrderingAndCounts) {
  // Heavy schedule/cancel/fire cycling recycles slots; ordering, pending
  // counts, and tie-breaks must be unaffected by which arena slot an event
  // happens to land in.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  for (int round = 0; round < 50; ++round) {
    const TimeNs base = sim.now();
    for (int i = 0; i < 8; ++i) {
      const int tag = round * 8 + i;
      const EventId id =
          sim.schedule_at(base + 1 + i / 4, [&order, tag] { order.push_back(tag); });
      if (i % 2 == 1) {
        ASSERT_TRUE(sim.cancel(id));
        cancelled.push_back(id);
      }
    }
    sim.run_until(base + 2);
  }
  EXPECT_TRUE(sim.empty());
  // Cancelled events never fired; live ones fired in (time, insertion) order.
  ASSERT_EQ(order.size(), 50u * 4u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_LT(order[i - 1], order[i]);
  for (EventId id : cancelled) EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, ManyEventsStress) {
  Simulator sim;
  std::size_t count = 0;
  for (int i = 0; i < 10000; ++i)
    sim.schedule_at((i * 7919) % 100000, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 10000u);
}

}  // namespace
}  // namespace mixnet::eventsim
