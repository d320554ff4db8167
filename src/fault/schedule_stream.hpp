// schedule_stream.hpp — infinite, seed-replayable regenerating fault
// schedules: the one churn and deep-fade process of both run modes.
//
// The streams keep the Poisson processes' continuation state as members —
// the RNG engine, the one arrival that was drawn but landed beyond the last
// chunk, per-device downtime — so the engine can pull the schedule chunk by
// chunk in constant memory: a one-shot trial in one chunk up to its
// horizon, a service soak one telemetry window at a time, forever.  The
// emitted sequence is a pure function of (plan, device_count, master_seed)
// and is *chunk-invariant*: slicing the same horizon into different chunk
// sizes yields the identical concatenated event list (test_schedule_stream
// asserts this), so both modes see the same events.  fault::FaultInjector
// owns one stream of each kind; both are copyable, so an engine snapshot
// captures the stream position and a restored run replays the same tail.
//
// Horizon rule: an event is emitted when its *generation point* (a crash's
// arrival, a fade's start) lies before the chunk's end, and the engine
// schedules it wherever its slot lands.  The run then fires what lands at or
// before its horizon; past the horizon nothing fires — a fade still open at
// the end gets no end event, a device whose recovery lies past the end
// stays down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/rng.hpp"

namespace firefly::fault {

/// Check that `plan`'s churn actually covers a soak of `duration_slots`
/// (1 slot = 1 ms): a finite schedule that ends early would leave the rest
/// of the soak silently fault-free, which is never what a churn soak means.
/// Returns "" when the plan is usable, else a human-readable error.
[[nodiscard]] std::string validate_service_horizon(const FaultPlan& plan,
                                                   std::int64_t duration_slots);

/// Regenerating churn process: Poisson crash arrivals with exponential
/// downtimes.
class ChurnStream {
 public:
  ChurnStream(const FaultPlan& plan, std::uint32_t device_count,
              std::uint64_t master_seed);

  /// Append every event whose *generation point* lies in [the previous
  /// call's `to_slot`, to_slot) to `out`: crash events land at their arrival
  /// slot; each crash's paired recover event is emitted immediately even
  /// when its slot falls beyond `to_slot` (the caller schedules it wherever
  /// it lands — that is what makes the output chunk-invariant).  A device
  /// that is still down when a crash arrival hits it absorbs the arrival.
  /// A `to_slot` below the previous call's emits nothing and loses no
  /// arrival.
  void generate_until(std::int64_t to_slot, std::vector<ChurnEvent>& out);

 private:
  double rate_per_slot_ = 0.0;
  double stop_ms_ = -1.0;
  double mean_downtime_ms_ = 1.0;
  std::uint32_t device_count_ = 0;
  util::Rng rng_;
  // The one arrival drawn past the end of the previous chunk.  It must be
  // kept, not re-drawn: re-drawing would make the sequence depend on where
  // the chunk boundaries fell.
  bool have_pending_ = false;
  double pending_t_ = 0.0;
  bool stopped_ = false;  // churn_stop_ms reached: no further draws, ever
  std::vector<std::int64_t> down_until_;
};

/// Regenerating deep-fade process: Poisson episode arrivals on random links
/// with exponential durations.  Episodes are emitted at their start slot;
/// an episode's end may fall beyond the chunk (the caller schedules both
/// boundaries).
class FadeStream {
 public:
  FadeStream(const FaultPlan& plan, std::uint32_t device_count,
             std::uint64_t master_seed);

  /// Append every episode whose start slot lies in [the previous call's
  /// `to_slot`, to_slot); like ChurnStream's, a smaller `to_slot` emits
  /// nothing.
  void generate_until(std::int64_t to_slot, std::vector<FadeEpisode>& out);

 private:
  double rate_per_slot_ = 0.0;
  double mean_duration_ms_ = 1.0;
  std::uint32_t device_count_ = 0;
  util::Rng rng_;
  bool have_pending_ = false;
  double pending_t_ = 0.0;
};

}  // namespace firefly::fault
