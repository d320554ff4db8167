// Tests for the hierarchical slot-calendar scheduler (src/sim/slot_calendar.hpp).
//
// Mirrors test_event_queue.cpp (same observable semantics), adds calendar-
// specific cases — page/level crossings, far-horizon overflow, cursor
// retreat — and ends with a differential
// fuzz that drives the calendar and the heap reference with the identical
// schedule/cancel sequence and asserts the pop streams match exactly.
#include "sim/slot_calendar.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "heap_event_queue.hpp"
#include "util/rng.hpp"

namespace {

using firefly::sim::EventId;
using firefly::sim::EventQueue;
using firefly::sim::SlotCalendar;

TEST(SlotCalendar, PopsInTimeOrder) {
  SlotCalendar q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SlotCalendar, FifoForSimultaneousEvents) {
  SlotCalendar q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SlotCalendar, CancelPreventsExecution) {
  SlotCalendar q;
  bool ran = false;
  const auto id = q.schedule(1, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(SlotCalendar, CancelTwiceFails) {
  SlotCalendar q;
  const auto id = q.schedule(1, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(SlotCalendar, CancelAfterFireFails) {
  SlotCalendar q;
  const auto id = q.schedule(1, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(SlotCalendar, CancelInvalidIdFails) {
  SlotCalendar q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(SlotCalendar, CancelStaleIdOfReusedSlotFails) {
  SlotCalendar q;
  const auto a = q.schedule(1, [] {});
  q.pop().fn();
  // The arena reuses the record slot; its generation must have advanced.
  const auto b = q.schedule(2, [] {});
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
}

TEST(SlotCalendar, NextTimeSkipsCancelled) {
  SlotCalendar q;
  const auto early = q.schedule(1, [] {});
  q.schedule(5, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 5);
  EXPECT_EQ(q.size(), 1U);
}

TEST(SlotCalendar, NextTimeOnEmptyIsMax) {
  SlotCalendar q;
  EXPECT_EQ(q.next_time(), INT64_MAX);
}

TEST(SlotCalendar, SizeTracksLiveEvents) {
  SlotCalendar q;
  const auto a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2U);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1U);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(SlotCalendar, Level1PageCrossing) {
  // Slots 100 and 300 straddle a 256-slot page boundary, so the second
  // event starts in level 1 and cascades down when the cursor crosses.
  SlotCalendar q;
  std::vector<int> order;
  q.schedule(300, [&] { order.push_back(2); });
  q.schedule(100, [&] { order.push_back(1); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SlotCalendar, Level2AndFarHorizonCrossing) {
  SlotCalendar q;
  std::vector<int> order;
  // Level 2 (beyond 2^16 slots) and far overflow (beyond 2^24 slots).
  q.schedule((1 << 24) + 7, [&] { order.push_back(3); });
  q.schedule((1 << 16) + 5, [&] { order.push_back(2); });
  q.schedule(1, [&] { order.push_back(1); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SlotCalendar, ScheduleBehindPeekedCursorRetreats) {
  // next_time() advances the internal cursor to slot 100; scheduling into
  // slot 10 afterwards must still pop first (cursor retreat + rebuild).
  SlotCalendar q;
  std::vector<int> order;
  q.schedule(100, [&] { order.push_back(2); });
  EXPECT_EQ(q.next_time(), 100);
  q.schedule(10, [&] { order.push_back(1); });
  EXPECT_EQ(q.next_time(), 10);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SlotCalendar, StressRandomScheduleCancelKeepsOrder) {
  // 2000 events over 400 slots (five per bucket, across a page boundary);
  // equal slots must pop in schedule order.
  SlotCalendar q;
  firefly::util::Rng rng(77);
  std::vector<EventId> ids;
  std::vector<int> fired_tags;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(q.schedule(static_cast<std::int64_t>(rng.uniform_index(400)),
                             [&fired_tags, i] { fired_tags.push_back(i); }));
  }
  for (int i = 0; i < 500; ++i) {
    q.cancel(ids[rng.uniform_index(ids.size())]);
  }
  std::int64_t last = 0;
  int last_tag = -1;
  while (!q.empty()) {
    auto fired = q.pop();
    fired.fn();
    EXPECT_GE(fired.time, last);
    if (fired.time == last) {
      EXPECT_GT(fired_tags.back(), last_tag);
    }
    last = fired.time;
    last_tag = fired_tags.back();
  }
}

// The decisive test: drive both schedulers with the identical operation
// sequence and assert identical pop streams — slot AND payload, which pins
// the (slot, seq) total order, not just slot order.
TEST(SlotCalendar, DifferentialFuzzMatchesHeapReference) {
  for (const std::uint64_t seed : {1ULL, 2015ULL, 99991ULL}) {
    SlotCalendar cal;
    EventQueue heap;
    firefly::util::Rng rng(seed);
    std::vector<std::pair<EventId, EventId>> ids;  // (calendar, heap)
    std::vector<int> cal_log;
    std::vector<int> heap_log;
    int tag = 0;
    std::int64_t now = 0;

    for (int round = 0; round < 4000; ++round) {
      const double p = rng.uniform();
      if (p < 0.55) {
        // Mostly within the next 300 slots, a fifth within the next 4 (so
        // buckets near the cursor, the draining one included, hold several
        // events), a few far ahead.
        std::int64_t delta_slots =
            static_cast<std::int64_t>(rng.uniform_index(300));
        if (rng.uniform() < 0.02) delta_slots += 70000;   // level 2
        if (rng.uniform() < 0.005) delta_slots += 17000000;  // far horizon
        if (rng.uniform() < 0.2) delta_slots %= 4;
        const std::int64_t at = now + delta_slots;
        const int t = tag++;
        ids.emplace_back(cal.schedule(at, [&cal_log, t] { cal_log.push_back(t); }),
                         heap.schedule(at, [&heap_log, t] { heap_log.push_back(t); }));
      } else if (p < 0.75 && !ids.empty()) {
        const auto pick = rng.uniform_index(ids.size());
        const bool a = cal.cancel(ids[pick].first);
        const bool b = heap.cancel(ids[pick].second);
        EXPECT_EQ(a, b);
      } else if (!cal.empty()) {
        ASSERT_FALSE(heap.empty());
        ASSERT_EQ(cal.next_time(), heap.next_time());
        auto fc = cal.pop();
        auto fh = heap.pop();
        ASSERT_EQ(fc.time, fh.time);
        fc.fn();
        fh.fn();
        ASSERT_EQ(cal_log.back(), heap_log.back());
        now = fc.time;
      }
      ASSERT_EQ(cal.size(), heap.size());
    }
    while (!cal.empty()) {
      ASSERT_FALSE(heap.empty());
      auto fc = cal.pop();
      auto fh = heap.pop();
      ASSERT_EQ(fc.time, fh.time);
      fc.fn();
      fh.fn();
      ASSERT_EQ(cal_log.back(), heap_log.back());
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(cal_log, heap_log);
  }
}

}  // namespace
