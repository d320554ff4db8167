// slot_calendar.hpp — hierarchical slot-calendar scheduler (timing wheel).
//
// The simulator's pending-event set is dominated by one pattern: cancel the
// previous fire event and schedule the next one exactly one period ahead.
// A binary heap pays O(log n) moves (and, in the heap reference the tests
// keep, a hash-set insert — a heap allocation) for every such reschedule.
// The slot calendar makes both O(1):
//
//   * Event records are fixed-layout structs in a `util::SlabArena` —
//     schedule() pops a freelist slot, cancel() flips a flag.  After warm-up
//     a trial never touches the system heap for scheduling.
//   * Event times are whole slots (1 ms LTE slots, Table I).  Three levels of
//     256 buckets cover the next 2^24 slots (~4.6 h of simulated time);
//     later events park in an overflow list.  Crossing a 256-slot page
//     cascades the next level-1 bucket down into level 0, and so on.
//   * Each bucket is an intrusive FIFO list.  A level-0 bucket holds one
//     slot, and appends happen in sequence-number order, so it drains
//     front-to-back in the exact (slot, seq) order the heap would produce.
//
// Determinism is the hard requirement: test_slot_calendar and
// test_arena_churn fuzz this calendar against a binary-heap oracle
// (tests/heap_event_queue.hpp), and test_golden_digests pins whole-trial
// results.
#pragma once

#include <cstdint>

#include "util/arena.hpp"
#include "util/inplace_function.hpp"

namespace firefly::sim {

using EventId = std::uint64_t;
/// Event callback with inline (small-buffer) capture storage.  48 bytes
/// covers every closure the engines schedule; larger captures fail to
/// compile rather than silently allocating.
using EventFn = util::InplaceFunction<void(), 48>;

/// A popped event.
struct FiredEvent {
  std::int64_t time;  ///< slot
  EventId id;
  EventFn fn;
};

class SlotCalendar {
 public:
  /// Schedule `fn` at absolute slot `at`.  Returns an id usable for cancel().
  /// Throws std::invalid_argument for a slot before 0.
  EventId schedule(std::int64_t at, EventFn fn);

  /// Cancel a pending event.  Returns false if already fired or cancelled.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Slot of the earliest live event; INT64_MAX when empty.
  [[nodiscard]] std::int64_t next_time() const;

  /// Pop the earliest live event.  Precondition: !empty().
  FiredEvent pop();

  /// Deep-copy the calendar's complete state into `dst`: the record arena
  /// (slot-exact, callbacks cloned, generations preserved — so EventIds
  /// minted here stay valid against the copy), every bucket list, the
  /// cursor and the counters.  The copy pops in exactly the
  /// same (slot, seq) order as the original; this is the scheduler half of
  /// the simulator's snapshot/restore checkpoint.
  void clone_into(SlotCalendar& dst) const;

  /// Arena footprint probes for the bounded-memory soak gate.
  [[nodiscard]] std::size_t arena_capacity() const { return arena_.capacity(); }
  [[nodiscard]] std::size_t arena_high_water() const { return arena_.high_water(); }
  [[nodiscard]] std::size_t arena_bytes() const { return arena_.capacity_bytes(); }

 private:
  static constexpr std::uint32_t kNil = util::SlabArena<int>::kNil;
  static constexpr std::uint32_t kBuckets = 256;  // per level

  enum class State : std::uint8_t { kFree, kLive, kCancelled };

  struct Rec {
    std::int64_t time = 0;  // slot
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;  // intrusive list link
    std::uint32_t gen = 0;      // bumped on release; stale ids fail cancel()
    State state = State::kFree;
    EventFn fn;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // Which region a record currently resides in, for the resident counters
  // that let the cursor skip empty pages.
  enum Region : std::uint8_t { kL0 = 0, kL1 = 1, kL2 = 2, kFar = 3 };

  void append(Bucket& b, std::uint32_t idx, Region region);
  std::uint32_t unlink_head(Bucket& b, Region region);
  /// Route a record to the bucket its slot belongs to, relative to cur_slot_.
  void place(std::uint32_t idx);
  /// Move every record of a level-1/2 bucket down one level.
  void cascade(Bucket& b, Region region);
  /// Drop a record back to the freelist (bumps generation).
  void free_rec(std::uint32_t idx);
  /// Gather all live records, sort by seq, and re-place them relative to the
  /// current cursor.  Used for cursor retreat and far-horizon crossings.
  void rebuild();
  /// Advance the cursor one step (skipping empty pages), cascading on
  /// page crossings.
  void advance_cursor();
  /// Index of the earliest live record, pruning cancelled ones; kNil iff
  /// the calendar is empty.  Advances the cursor as needed.
  std::uint32_t peek();

  util::SlabArena<Rec> arena_;
  Bucket l0_[kBuckets];
  Bucket l1_[kBuckets];
  Bucket l2_[kBuckets];
  Bucket far_;  // beyond the 2^24-slot horizon

  std::int64_t cur_slot_ = 0;  // slot the drain cursor is at

  // Records resident per region (live + cancelled-not-yet-freed).  A region
  // count of zero lets advance_cursor() jump whole pages.
  std::size_t residents_[4] = {0, 0, 0, 0};

  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace firefly::sim
