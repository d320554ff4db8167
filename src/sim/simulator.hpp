// simulator.hpp — the discrete-event scheduler.
//
// A single-threaded event loop over a pending-event set.  Protocol entities
// schedule callbacks in the future (`schedule_in`/`schedule_at`), install
// periodic timers, and the loop advances the clock from event to event.
// `run_until` bounds a run; convergence detectors call `stop()` to end it
// early.  One Simulator per Monte-Carlo trial; trials parallelise across a
// thread pool with no shared state.
//
// The pending-event set is the slot calendar (sim/slot_calendar.hpp):
// allocation-free after warm-up, events processed in (time, sequence)
// total order.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/slot_calendar.hpp"
#include "sim/time.hpp"

namespace firefly::sim {

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

  /// Schedule at an absolute simulated time (must be >= now()).
  EventId schedule_at(SimTime at, EventFn fn);
  /// Schedule `delay` after now().
  EventId schedule_in(SimTime delay, EventFn fn);
  /// Cancel a pending event; false if already fired/cancelled.
  bool cancel(EventId id) { return calendar_.cancel(id); }

  /// Install a periodic timer with the given period, first firing at
  /// now() + phase.  The series runs for the simulator's lifetime.
  void schedule_periodic(SimTime phase, SimTime period, EventFn fn);

  /// Run until the queue drains or `deadline` passes.  Returns the time the
  /// loop stopped at.
  SimTime run_until(SimTime deadline);
  /// Run until the queue drains (use with care: periodic timers never drain).
  SimTime run();
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
    SimTime now = SimTime::zero();
    std::uint64_t events_processed = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  /// Pending-set footprint, for the bounded-memory probe.
  struct SchedulerStats {
    std::size_t live_events = 0;
    std::size_t arena_capacity = 0;
    std::size_t arena_high_water = 0;
  };
  [[nodiscard]] SchedulerStats scheduler_stats() const;

  ~Simulator();

 private:
  struct Periodic;

  SlotCalendar calendar_;
  SimTime now_ = SimTime::zero();
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  // Owned here and freed in the destructor: a rollback can drop a timer's
  // pending occurrence, but a later restore may bring it back.
  std::vector<Periodic*> periodic_states_;
};

}  // namespace firefly::sim
