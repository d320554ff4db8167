// heap_event_queue.hpp — the binary-heap test oracle for the slot calendar.
//
// `EventQueue` is a plain binary min-heap keyed on (slot, sequence number):
// the monotone sequence number gives FIFO semantics for simultaneous events,
// and events cancel in O(1) by id (lazy deletion at pop).  The simulator
// does not use it — it is the obviously-correct reference that
// test_slot_calendar, test_arena_churn and test_event_queue fuzz the
// calendar against.  It inserts a hash-set node per schedule(), so it could
// not meet the zero-heap-growth soak gate as a production scheduler.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/slot_calendar.hpp"  // EventId, EventFn, FiredEvent

namespace firefly::sim {

class EventQueue {
 public:
  /// Schedule `fn` at absolute slot `at`.  Returns an id usable for cancel().
  EventId schedule(std::int64_t at, EventFn fn) {
    const EventId id = next_id_++;
    heap_.push_back(Entry{at, next_seq_++, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    pending_.insert(id);
    ++live_count_;
    return id;
  }

  /// Cancel a pending event.  Returns false if already fired or cancelled.
  bool cancel(EventId id) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return false;  // already fired or cancelled
    pending_.erase(it);
    cancelled_.insert(id);
    --live_count_;
    return true;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Slot of the earliest live event; INT64_MAX when empty.
  [[nodiscard]] std::int64_t next_time() const {
    skip_cancelled();
    if (heap_.empty()) return INT64_MAX;
    return heap_.front().time;
  }

  /// Pop the earliest live event.  Precondition: !empty().
  FiredEvent pop() {
    skip_cancelled();
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    pending_.erase(e.id);
    --live_count_;
    return FiredEvent{e.time, e.id, std::move(e.fn)};
  }

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

  void skip_cancelled() const {
    while (!heap_.empty()) {
      const auto it = cancelled_.find(heap_.front().id);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  mutable std::vector<Entry> heap_;
  std::unordered_set<EventId> pending_;
  mutable std::unordered_set<EventId> cancelled_;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::size_t live_count_ = 0;
};

}  // namespace firefly::sim
