// Cancel-heavy churn coverage for the scheduler storage layer: SlabArena
// freelist reuse (slots recycle, capacity and high-water stay put) and
// slot-calendar cancel() under a mass-departure workload that cancels
// thousands of pending fires per wave — with the binary-heap reference
// scheduler asserting the surviving pop order is unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "heap_event_queue.hpp"
#include "sim/slot_calendar.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;

struct Payload {
  std::uint64_t tag = 0;
};

TEST(SlabArena, FreelistRecyclesWithoutGrowingCapacity) {
  util::SlabArena<Payload> arena;
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 1'000; ++i) first.push_back(arena.allocate());
  const std::size_t capacity = arena.capacity();
  EXPECT_EQ(arena.live(), 1'000u);
  EXPECT_EQ(arena.high_water(), 1'000u);

  // Release everything, then allocate the same count again: every slot must
  // come from the freelist — no new chunk, no high-water movement.
  for (const std::uint32_t idx : first) arena.release(idx);
  EXPECT_EQ(arena.live(), 0u);
  std::vector<bool> was_allocated(arena.capacity(), false);
  for (const std::uint32_t idx : first) was_allocated[idx] = true;
  for (int i = 0; i < 1'000; ++i) {
    const std::uint32_t idx = arena.allocate();
    EXPECT_TRUE(was_allocated[idx]) << "allocate() minted a fresh slot " << idx
                                    << " instead of reusing the freelist";
  }
  EXPECT_EQ(arena.capacity(), capacity);
  EXPECT_EQ(arena.high_water(), 1'000u);
}

TEST(SlabArena, HighWaterTracksPeakNotCurrent) {
  util::SlabArena<Payload> arena;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 300; ++i) slots.push_back(arena.allocate());
  for (const std::uint32_t idx : slots) arena.release(idx);
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.high_water(), 300u);
  (void)arena.allocate();
  EXPECT_EQ(arena.high_water(), 300u) << "re-allocation below the peak moved HWM";
}

TEST(SlabArena, CopyFromReplicatesFreelistAndHighWater) {
  util::SlabArena<Payload> src;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 600; ++i) slots.push_back(src.allocate());
  for (int i = 0; i < 600; i += 2) src.release(slots[i]);  // fragment freelist

  util::SlabArena<Payload> dst;
  dst.copy_from(src, [](Payload& d, const Payload& s) { d = s; });
  EXPECT_EQ(dst.capacity(), src.capacity());
  EXPECT_EQ(dst.live(), src.live());
  EXPECT_EQ(dst.high_water(), src.high_water());
  // The copy's freelist must replay identically: allocate from both, the
  // same indices must come back in the same order.
  for (int i = 0; i < 300; ++i) EXPECT_EQ(dst.allocate(), src.allocate());
}

/// One churn wave: schedule 4,000 fires spread over the coming 250 slots
/// (16 per slot), cancel a churn-like subset (mass departure), drain the
/// survivors.  Runs the same sequence against the wheel and the reference
/// heap.
TEST(SlotCalendarChurn, MassCancellationMatchesHeapAndBoundsArena) {
  sim::SlotCalendar wheel;
  sim::EventQueue heap;
  util::Rng rng(99);

  std::size_t capacity_after_first_wave = 0;
  std::int64_t now = 0;
  std::vector<int> wheel_log;
  std::vector<int> heap_log;
  for (int wave = 0; wave < 6; ++wave) {
    std::vector<std::pair<sim::EventId, sim::EventId>> pending;
    pending.reserve(4'000);
    for (int i = 0; i < 4'000; ++i) {
      const std::int64_t at = now + 1 + static_cast<std::int64_t>(rng.uniform_index(250));
      pending.emplace_back(wheel.schedule(at, [&wheel_log, i] { wheel_log.push_back(i); }),
                           heap.schedule(at, [&heap_log, i] { heap_log.push_back(i); }));
    }
    // Mass departure: ~75% of this wave's fires are cancelled.
    std::uint32_t cancelled = 0;
    for (const auto& [wheel_id, heap_id] : pending) {
      if (rng.uniform_index(4) != 0) {
        ASSERT_TRUE(wheel.cancel(wheel_id));
        ASSERT_TRUE(heap.cancel(heap_id));
        // Double-cancel must report failure, not corrupt the freelist.
        EXPECT_FALSE(wheel.cancel(wheel_id));
        ++cancelled;
      }
    }
    ASSERT_GT(cancelled, 2'000u);

    // Survivors pop in the identical (slot, seq) order on both backends.
    while (!heap.empty()) {
      ASSERT_FALSE(wheel.empty());
      const std::int64_t wheel_time = wheel.next_time();
      EXPECT_EQ(wheel_time, heap.next_time());
      wheel.pop().fn();
      heap.pop().fn();
      ASSERT_EQ(wheel_log.back(), heap_log.back());
      now = wheel_time;
    }
    EXPECT_TRUE(wheel.empty());

    if (wave == 0) {
      capacity_after_first_wave = wheel.arena_capacity();
    } else {
      EXPECT_EQ(wheel.arena_capacity(), capacity_after_first_wave)
          << "arena grew on wave " << wave << " despite identical load";
    }
  }
  EXPECT_LE(wheel.arena_high_water(), 4'096u);
}

TEST(SlotCalendarChurn, CancelledIdsStayDeadAfterSlotReuse) {
  sim::SlotCalendar wheel;
  const sim::EventId first =
      wheel.schedule(5, [] {});
  ASSERT_TRUE(wheel.cancel(first));
  // The freed slot is recycled by the next schedule; the old id's generation
  // is stale and must not cancel the new occupant.
  const sim::EventId second =
      wheel.schedule(7, [] {});
  EXPECT_FALSE(wheel.cancel(first));
  EXPECT_EQ(wheel.size(), 1u);
  EXPECT_TRUE(wheel.cancel(second));
  EXPECT_TRUE(wheel.empty());
}

}  // namespace
