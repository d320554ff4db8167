// simulator.hpp — the discrete-event scheduler.
//
// A single-threaded event loop over a pending-event set.  Protocol entities
// schedule callbacks in the future (`schedule_in`/`schedule_at`), install
// periodic timers, and the loop advances the clock from event to event.  The
// clock is an int64 count of 1 ms LTE slots.
// `run_until` bounds a run; convergence detectors call `stop()` to end it
// early.  One Simulator per Monte-Carlo trial; trials parallelise across a
// thread pool with no shared state.
//
// The pending-event set is the slot calendar (sim/slot_calendar.hpp):
// allocation-free after warm-up, events processed in (slot, sequence)
// total order.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/slot_calendar.hpp"

namespace firefly::sim {

class Simulator {
 public:
  /// Current slot.
  [[nodiscard]] std::int64_t now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

  /// Schedule at an absolute slot.  Throws std::invalid_argument for a slot
  /// before now().
  EventId schedule_at(std::int64_t slot, EventFn fn);
  /// Schedule `delay` slots after now().  Throws std::invalid_argument for a
  /// negative delay.
  EventId schedule_in(std::int64_t delay, EventFn fn);
  /// Cancel a pending event; false if already fired/cancelled.
  bool cancel(EventId id) { return calendar_.cancel(id); }

  /// Install a periodic timer with the given period in slots, first firing
  /// at now() + phase.  The series runs for the simulator's lifetime.
  /// Throws std::invalid_argument for a period below one slot.
  void schedule_periodic(std::int64_t phase, std::int64_t period, EventFn fn);

  /// Run until the queue drains or `deadline` passes.  Returns the slot the
  /// loop stopped at.  Throws std::invalid_argument for a deadline before
  /// now(): the clock never moves backwards.
  std::int64_t run_until(std::int64_t deadline);
  /// Run until the queue drains (use with care: periodic timers never drain).
  std::int64_t run();
  /// Request an early stop from inside an event callback.
  void stop() { stop_requested_ = true; }

  /// In-process rollback checkpoint of the scheduler: clock, counters and
  /// the complete pending-event set (callbacks cloned).  A periodic timer
  /// re-arms only from its own firing, so it is live exactly when the
  /// pending set holds its next occurrence: restore() silences every timer
  /// installed after the snapshot and revives every one the snapshot held.
  /// That holds only when restore() is called from outside run_until(): a
  /// periodic callback that restores would re-arm its own timer into the
  /// restored set.  restore() rewinds THIS simulator — scheduled closures capture raw
  /// pointers (engine, devices, periodic states) that are only meaningful
  /// inside the owning process, so a snapshot is a rewind point, not a
  /// serialised file.
  struct Snapshot {
    SlotCalendar calendar;
    std::int64_t now = 0;
    std::uint64_t events_processed = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  /// Pending-set footprint, for the bounded-memory probe.
  struct SchedulerStats {
    std::size_t live_events = 0;
    std::size_t arena_capacity = 0;
    std::size_t arena_high_water = 0;
    std::size_t arena_bytes = 0;  ///< heap bytes of the record arena
  };
  [[nodiscard]] SchedulerStats scheduler_stats() const;

  ~Simulator();

 private:
  struct Periodic;

  SlotCalendar calendar_;
  std::int64_t now_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  // Owned here and freed in the destructor: a rollback can drop a timer's
  // pending occurrence, but a later restore may bring it back.
  std::vector<Periodic*> periodic_states_;
};

}  // namespace firefly::sim
