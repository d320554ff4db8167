// Tests for the discrete-event scheduler (src/sim/simulator.hpp).
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using firefly::sim::SimTime;
using firefly::sim::Simulator;

TEST(SimTimeTest, ArithmeticAndConversions) {
  EXPECT_EQ(SimTime::milliseconds(1).us, 1000);
  EXPECT_EQ(SimTime::seconds(2).us, 2'000'000);
  EXPECT_EQ((SimTime::milliseconds(3) + SimTime::microseconds(5)).us, 3005);
  EXPECT_DOUBLE_EQ(SimTime::milliseconds(1500).as_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::microseconds(2500).as_milliseconds(), 2.5);
  EXPECT_EQ(firefly::sim::kLteSlot.us, 1000);  // Table I slot
}

TEST(Simulator, AdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<std::int64_t> seen;
  sim.schedule_at(SimTime::milliseconds(5), [&] { seen.push_back(sim.now().us); });
  sim.schedule_at(SimTime::milliseconds(2), [&] { seen.push_back(sim.now().us); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2000, 5000}));
  EXPECT_EQ(sim.events_processed(), 2U);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::int64_t fired_at = -1;
  sim.schedule_at(SimTime::milliseconds(10), [&] {
    sim.schedule_in(SimTime::milliseconds(7), [&] { fired_at = sim.now().us; });
  });
  sim.run();
  EXPECT_EQ(fired_at, 17000);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool late_ran = false;
  sim.schedule_at(SimTime::milliseconds(100), [&] { late_ran = true; });
  const SimTime end = sim.run_until(SimTime::milliseconds(50));
  EXPECT_EQ(end, SimTime::milliseconds(50));
  EXPECT_FALSE(late_ran);
  // The event is still pending and fires on a longer run.
  sim.run_until(SimTime::milliseconds(200));
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, StopEndsLoopEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(SimTime::milliseconds(i), [&, i] {
      ++count;
      if (i == 3) sim.stop();
    });
  }
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, CancelPendingEvent) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule_at(SimTime::milliseconds(5), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule_periodic(SimTime::milliseconds(2), SimTime::milliseconds(3),
                        [&] { times.push_back(sim.now().us); });
  sim.run_until(SimTime::milliseconds(12));
  EXPECT_EQ(times, (std::vector<std::int64_t>{2000, 5000, 8000, 11000}));
  sim.run_until(SimTime::milliseconds(30));
  EXPECT_EQ(times.size(), 10U);  // the series runs on: 14, 17, ..., 29 ms
}

TEST(Simulator, RestoreCancelsTimersInstalledAfterTheSnapshot) {
  Simulator sim;
  int a = 0;
  int b = 0;
  sim.schedule_periodic(SimTime::milliseconds(1), SimTime::milliseconds(1), [&] { ++a; });
  sim.run_until(SimTime::milliseconds(2));
  const Simulator::Snapshot before_b = sim.snapshot();
  sim.schedule_periodic(SimTime::milliseconds(1), SimTime::milliseconds(1), [&] { ++b; });
  sim.run_until(SimTime::milliseconds(4));
  EXPECT_EQ(a, 4);
  EXPECT_EQ(b, 2);
  const Simulator::Snapshot with_b = sim.snapshot();

  // Rewound to before b existed: a re-runs slots 3 and 4, b stays silent.
  sim.restore(before_b);
  EXPECT_EQ(sim.now(), SimTime::milliseconds(2));
  sim.run_until(SimTime::milliseconds(4));
  EXPECT_EQ(a, 6);
  EXPECT_EQ(b, 2);

  // A snapshot that holds b brings it back.
  sim.restore(with_b);
  sim.run_until(SimTime::milliseconds(6));
  EXPECT_EQ(a, 8);
  EXPECT_EQ(b, 4);
}

TEST(Simulator, EventsAtSameTimeRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(SimTime::milliseconds(1), [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunOnEmptyQueueReturnsImmediately) {
  Simulator sim;
  const SimTime end = sim.run();
  EXPECT_EQ(end, SimTime::zero());
}

}  // namespace
