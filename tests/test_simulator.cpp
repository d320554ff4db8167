// Tests for the discrete-event scheduler (src/sim/simulator.hpp).
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace {

using firefly::sim::Simulator;

TEST(Simulator, AdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<std::int64_t> seen;
  sim.schedule_at(5, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(2, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2, 5}));
  EXPECT_EQ(sim.events_processed(), 2U);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::int64_t fired_at = -1;
  sim.schedule_at(10, [&] {
    sim.schedule_in(7, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 17);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool late_ran = false;
  sim.schedule_at(100, [&] { late_ran = true; });
  const std::int64_t end = sim.run_until(50);
  EXPECT_EQ(end, 50);
  EXPECT_FALSE(late_ran);
  // The event is still pending and fires on a longer run.
  sim.run_until(200);
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, StopEndsLoopEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i, [&, i] {
      ++count;
      if (i == 3) sim.stop();
    });
  }
  sim.run_until(1000);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, CancelPendingEvent) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule_at(5, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule_periodic(2, 3, [&] { times.push_back(sim.now()); });
  sim.run_until(12);
  EXPECT_EQ(times, (std::vector<std::int64_t>{2, 5, 8, 11}));
  sim.run_until(30);
  EXPECT_EQ(times.size(), 10U);  // the series runs on: 14, 17, ..., 29
}

TEST(Simulator, RestoreCancelsTimersInstalledAfterTheSnapshot) {
  Simulator sim;
  int a = 0;
  int b = 0;
  sim.schedule_periodic(1, 1, [&] { ++a; });
  sim.run_until(2);
  const Simulator::Snapshot before_b = sim.snapshot();
  sim.schedule_periodic(1, 1, [&] { ++b; });
  sim.run_until(4);
  EXPECT_EQ(a, 4);
  EXPECT_EQ(b, 2);
  const Simulator::Snapshot with_b = sim.snapshot();

  // Rewound to before b existed: a re-runs slots 3 and 4, b stays silent.
  sim.restore(before_b);
  EXPECT_EQ(sim.now(), 2);
  sim.run_until(4);
  EXPECT_EQ(a, 6);
  EXPECT_EQ(b, 2);

  // A snapshot that holds b brings it back.
  sim.restore(with_b);
  sim.run_until(6);
  EXPECT_EQ(a, 8);
  EXPECT_EQ(b, 4);
}

TEST(Simulator, EventsAtSameTimeRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1, [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunOnEmptyQueueReturnsImmediately) {
  Simulator sim;
  const std::int64_t end = sim.run();
  EXPECT_EQ(end, 0);
}

// Scheduling into the past, a negative delay, a period below one slot or a
// run deadline before now() would move the clock backwards or re-arm at one
// slot forever; each is rejected in every build type, not only where
// asserts are compiled in.
TEST(Simulator, MisuseThrowsInEveryBuild) {
  Simulator sim;
  sim.run_until(10);
  EXPECT_THROW(sim.schedule_at(9, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_periodic(1, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_periodic(1, -5, [] {}), std::invalid_argument);
  EXPECT_EQ(sim.scheduler_stats().live_events, 0U);
  EXPECT_NO_THROW(sim.schedule_at(10, [] {}));
  EXPECT_EQ(sim.run_until(20), 20);
  // A deadline before now() would move the clock backwards, with an event
  // pending past both deadlines or not.
  sim.schedule_at(200, [] {});
  EXPECT_EQ(sim.run_until(100), 100);
  EXPECT_THROW(sim.run_until(50), std::invalid_argument);
  EXPECT_EQ(sim.now(), 100);

  firefly::sim::SlotCalendar calendar;
  EXPECT_THROW(calendar.schedule(-1, [] {}), std::invalid_argument);
  EXPECT_TRUE(calendar.empty());
}

}  // namespace
