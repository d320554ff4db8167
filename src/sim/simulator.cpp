#include "sim/simulator.hpp"

#include <stdexcept>

namespace firefly::sim {

struct Simulator::Periodic {
  Simulator* sim = nullptr;
  std::int64_t period = 0;
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

EventId Simulator::schedule_at(std::int64_t slot, EventFn fn) {
  if (slot < now_) throw std::invalid_argument("Simulator::schedule_at: slot before now()");
  return calendar_.schedule(slot, std::move(fn));
}

EventId Simulator::schedule_in(std::int64_t delay, EventFn fn) {
  if (delay < 0) throw std::invalid_argument("Simulator::schedule_in: negative delay");
  return calendar_.schedule(now_ + delay, std::move(fn));
}

void Simulator::schedule_periodic(std::int64_t phase, std::int64_t period, EventFn fn) {
  if (period < 1) throw std::invalid_argument("Simulator::schedule_periodic: period below one slot");
  auto* state = new Periodic{this, period, std::move(fn)};
  periodic_states_.push_back(state);
  schedule_in(phase, [state] { state->run(); });
}

std::int64_t Simulator::run_until(std::int64_t deadline) {
  if (deadline < now_) throw std::invalid_argument("Simulator::run_until: deadline before now()");
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
  if (calendar_.empty() && now_ < deadline && deadline != INT64_MAX) now_ = deadline;
  return now_;
}

std::int64_t Simulator::run() { return run_until(INT64_MAX); }

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
