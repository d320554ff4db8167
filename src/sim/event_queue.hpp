// event_queue.hpp — event ids, callbacks, and the binary-heap test oracle.
//
// `EventId`, `EventFn` and `FiredEvent` are the scheduling vocabulary the
// simulator's slot calendar (slot_calendar.hpp) is built on.  Simulated time
// is a plain int64 count of 1 ms LTE slots (Table I); every timer, firing and
// fault in the simulator is a whole slot.  `EventQueue` is a plain binary
// min-heap keyed on (slot, sequence number): the monotone
// sequence number gives FIFO semantics for simultaneous events, and events
// cancel in O(1) by id (lazy deletion at pop).  The simulator does not use
// it — it is the obviously-correct reference that test_slot_calendar,
// test_arena_churn and test_event_queue fuzz the calendar against.  It
// inserts a hash-set node per schedule(), so it could not meet the
// zero-heap-growth soak gate as a production scheduler.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

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

class EventQueue {
 public:
  /// Schedule `fn` at absolute slot `at`.  Returns an id usable for cancel().
  EventId schedule(std::int64_t at, EventFn fn);

  /// Cancel a pending event.  Returns false if already fired or cancelled.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Slot of the earliest live event; INT64_MAX when empty.
  [[nodiscard]] std::int64_t next_time() const;

  /// Pop the earliest live event.  Precondition: !empty().
  FiredEvent pop();

 private:
  struct Entry {
    std::int64_t time;
    std::uint64_t seq;
    EventId id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void skip_cancelled() const;

  mutable std::vector<Entry> heap_;
  std::unordered_set<EventId> pending_;
  mutable std::unordered_set<EventId> cancelled_;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::size_t live_count_ = 0;
};

}  // namespace firefly::sim
