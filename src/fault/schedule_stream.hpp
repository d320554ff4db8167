// schedule_stream.hpp — infinite, seed-replayable regenerating fault
// schedules for service-mode soaks.
//
// A one-shot trial expands a FaultPlan over a fixed horizon up front
// (`expand_schedule`); an open-ended service run has no fixed horizon.  The streams
// here keep the Poisson processes' continuation state as members — the RNG
// engine, the one arrival that was drawn but landed beyond the last chunk,
// per-device downtime — so the engine can pull the schedule chunk by chunk,
// one telemetry window at a time, forever, in constant memory.  The emitted
// sequence is a pure function of (plan, device_count, master_seed) and is
// *chunk-invariant*: slicing the same horizon into different chunk sizes
// yields the identical concatenated event list (test_schedule_stream
// asserts this).  Both streams are copyable, so an engine snapshot captures
// the stream position and a restored run replays the exact same tail.
//
// Draws come from the same named substreams as `expand_schedule`
// ("fault.churn", "fault.fade"), but interleaved per arrival instead of
// batched per phase, so a stream schedule is its own deterministic process,
// not a replay of the batch one.
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
/// downtimes, plus the plan's caller-scheduled events merged in slot order.
class ChurnStream {
 public:
  ChurnStream(const FaultPlan& plan, std::uint32_t device_count,
              std::uint64_t master_seed);

  /// Append every event whose *generation point* lies in
  /// [generated_to(), to_slot) to `out`: crash events land at their arrival
  /// slot; each crash's paired recover event is emitted immediately even
  /// when its slot falls beyond `to_slot` (the caller schedules it wherever
  /// it lands — that is what makes the output chunk-invariant).  A device
  /// that is still down when a crash arrival hits it absorbs the arrival,
  /// exactly like `expand_schedule`.
  void generate_until(std::int64_t to_slot, std::vector<ChurnEvent>& out);

  [[nodiscard]] std::int64_t generated_to() const { return generated_to_; }

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
  std::vector<ChurnEvent> scheduled_;  // plan.scheduled, sorted by slot
  std::size_t scheduled_cursor_ = 0;
  std::int64_t generated_to_ = 0;
};

/// Regenerating deep-fade process: Poisson episode arrivals on random links
/// with exponential durations.  Episodes are emitted at their start slot;
/// an episode's end may fall beyond the chunk (the caller schedules both
/// boundaries).
class FadeStream {
 public:
  FadeStream(const FaultPlan& plan, std::uint32_t device_count,
             std::uint64_t master_seed);

  /// Append every episode whose start slot lies in [generated_to(), to_slot).
  void generate_until(std::int64_t to_slot, std::vector<FadeEpisode>& out);

  [[nodiscard]] std::int64_t generated_to() const { return generated_to_; }

 private:
  double rate_per_slot_ = 0.0;
  double mean_duration_ms_ = 1.0;
  std::uint32_t device_count_ = 0;
  util::Rng rng_;
  bool have_pending_ = false;
  double pending_t_ = 0.0;
  std::int64_t generated_to_ = 0;
};

}  // namespace firefly::fault
