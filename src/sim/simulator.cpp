#include "sim/simulator.hpp"

#include <cassert>
#include <sstream>

namespace firefly::sim {

struct Simulator::PeriodicHandle::State {
  Simulator* sim = nullptr;
  SimTime period{};
  EventFn fn;
  EventId pending = 0;
  bool cancelled = false;

  // Fires one occurrence, then re-arms.  The State outlives every pending
  // occurrence (it is owned by the Simulator and freed in its destructor),
  // so scheduled closures capture just this raw pointer — 8 bytes, no
  // shared_ptr control block per timer.
  void run() {
    if (cancelled) return;
    fn();
    if (cancelled) return;
    pending = sim->schedule_in(period, [this] { run(); });
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

void Simulator::PeriodicHandle::cancel() {
  if (state_ == nullptr) return;
  state_->cancelled = true;
  if (state_->pending != 0) sim_->cancel(state_->pending);
  state_ = nullptr;
}

Simulator::PeriodicHandle Simulator::schedule_periodic(SimTime phase, SimTime period, EventFn fn) {
  assert(period.us > 0);
  auto* state = new PeriodicHandle::State{this, period, std::move(fn), 0, false};
  periodic_states_.push_back(state);
  state->pending = schedule_in(phase, [state] { state->run(); });

  PeriodicHandle handle;
  handle.state_ = state;
  handle.sim_ = this;
  return handle;
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
  snap.periodic.reserve(periodic_states_.size());
  for (const auto* s : periodic_states_)
    snap.periodic.emplace_back(s->pending, s->cancelled);
  return snap;
}

void Simulator::restore(const Snapshot& snap) {
  assert(snap.periodic.size() <= periodic_states_.size());
  snap.calendar.clone_into(calendar_);
  now_ = snap.now;
  events_processed_ = snap.events_processed;
  stop_requested_ = false;
  for (std::size_t i = 0; i < periodic_states_.size(); ++i) {
    if (i < snap.periodic.size()) {
      periodic_states_[i]->pending = snap.periodic[i].first;
      periodic_states_[i]->cancelled = snap.periodic[i].second;
    } else {
      // Installed after the snapshot: its State must stay allocated (cloned
      // closures in the restored queue never reference it, but the vector
      // owns it), yet it must never re-arm.
      periodic_states_[i]->cancelled = true;
    }
  }
}

Simulator::SchedulerStats Simulator::scheduler_stats() const {
  return SchedulerStats{calendar_.size(), calendar_.arena_capacity(),
                        calendar_.arena_high_water()};
}

Simulator::~Simulator() {
  for (auto* s : periodic_states_) delete s;
}

std::string to_string(SimTime t) {
  std::ostringstream os;
  os << t.as_milliseconds() << " ms";
  return os.str();
}

}  // namespace firefly::sim
