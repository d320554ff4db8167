// Tests for the binary-heap test oracle (tests/heap_event_queue.hpp).
#include "heap_event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace {

using firefly::sim::EventQueue;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForSimultaneousEvents) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const auto id = q.schedule(1, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const auto id = q.schedule(1, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const auto id = q.schedule(1, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const auto early = q.schedule(1, [] {});
  q.schedule(5, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 5);
  EXPECT_EQ(q.size(), 1U);
}

TEST(EventQueue, NextTimeOnEmptyIsMax) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), INT64_MAX);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const auto a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2U);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1U);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StressRandomScheduleCancelKeepsOrder) {
  // 2000 events over 400 slots; equal slots must pop in schedule order.
  EventQueue q;
  firefly::util::Rng rng(77);
  std::vector<firefly::sim::EventId> ids;
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

}  // namespace
