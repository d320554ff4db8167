#include "sim/simulator.hpp"

#include <cassert>

namespace firefly::sim {

struct Simulator::Periodic {
  Simulator* sim = nullptr;
  SimTime period{};
  EventFn fn;

  // Fires one occurrence, then re-arms.  The state outlives every pending
  // occurrence (it is owned by the Simulator and freed in its destructor),
  // so scheduled closures capture just this raw pointer — 8 bytes, no
  // shared_ptr control block per timer.
  void run() {
    fn();
    sim->schedule_in(period, [this] { run(); });
  }
};

EventId Simulator::schedule_at(SimTime at, EventFn fn) {
  assert(at >= now_);
  return calendar_.schedule(at, std::move(fn));
}

EventId Simulator::schedule_in(SimTime delay, EventFn fn) {
  assert(delay.us >= 0);
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_periodic(SimTime phase, SimTime period, EventFn fn) {
  assert(period.us > 0);
  auto* state = new Periodic{this, period, std::move(fn)};
  periodic_states_.push_back(state);
  schedule_in(phase, [state] { state->run(); });
}

SimTime Simulator::run_until(SimTime deadline) {
  stop_requested_ = false;
  while (!calendar_.empty() && !stop_requested_) {
    if (calendar_.next_time() > deadline) {
      now_ = deadline;
      return now_;
    }
    auto fired = calendar_.pop();
    now_ = fired.time;
    ++events_processed_;
    fired.fn();
  }
  if (calendar_.empty() && now_ < deadline && deadline != SimTime::max()) now_ = deadline;
  return now_;
}

SimTime Simulator::run() { return run_until(SimTime::max()); }

Simulator::Snapshot Simulator::snapshot() const {
  Snapshot snap;
  calendar_.clone_into(snap.calendar);
  snap.now = now_;
  snap.events_processed = events_processed_;
  return snap;
}

void Simulator::restore(const Snapshot& snap) {
  snap.calendar.clone_into(calendar_);
  now_ = snap.now;
  events_processed_ = snap.events_processed;
  stop_requested_ = false;
}

Simulator::SchedulerStats Simulator::scheduler_stats() const {
  return SchedulerStats{calendar_.size(), calendar_.arena_capacity(),
                        calendar_.arena_high_water()};
}

Simulator::~Simulator() {
  for (auto* s : periodic_states_) delete s;
}

}  // namespace firefly::sim
