// fault_plan.hpp — declarative description of the faults one run injects.
//
// The paper (like most of the pulse-coupled-sync literature it builds on)
// evaluates the happy path: static nodes, ideal oscillators, losses limited
// to preamble collisions.  A `FaultPlan` describes the three fault families
// real D2D deployments add on top — node churn, oscillator drift and
// channel faults — as *parameters of a deterministic process*: the concrete
// schedule is drawn by fault::FaultInjector and its streams
// (schedule_stream.hpp), in both run modes, from named RNG substreams of the
// run's master seed, so two runs with the same seed and the same plan see
// bit-identical fault sequences regardless of thread placement.
//
// All rates are network-wide arrival rates of a Poisson process (events per
// simulated minute); durations are exponential with the given mean.  An
// empty plan (`enabled() == false`) costs nothing: no injector is built and
// the radio keeps its fault-free delivery path.
#pragma once

#include <cstdint>

namespace firefly::fault {

/// One churn transition.  `crash == true` takes the device down
/// (radio silent, timers parked, oscillator stopped); `false` brings it
/// back with a full cold-boot state reset.
struct ChurnEvent {
  std::int64_t slot{0};
  std::uint32_t device{0};
  bool crash{true};

  friend constexpr bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

/// A deep-fade episode: the link (u, v) is attenuated by `FaultPlan::
/// fade_depth_db` in both directions for [start_slot, end_slot).  Models
/// correlated burst loss (body blocking, a bus driving through the path)
/// that the i.i.d. fast-fading model cannot produce.
struct FadeEpisode {
  std::int64_t start_slot{0};
  std::int64_t end_slot{0};
  std::uint32_t u{0};
  std::uint32_t v{0};

  friend constexpr bool operator==(const FadeEpisode&, const FadeEpisode&) = default;
};

struct FaultPlan {
  // --- node churn ---
  /// Random crash arrivals across the whole network, per simulated minute.
  double churn_rate_per_min{0.0};
  /// Mean downtime before the crashed device cold-boots (exponential).
  double mean_downtime_ms{2000.0};
  /// Inject no churn after this instant (< 0: churn for the whole run).  A
  /// quiet tail lets resilience benches assert re-convergence.
  double churn_stop_ms{-1.0};

  // --- clock drift ---
  /// Per-device oscillator skew drawn uniformly from [-max, +max] ppm of
  /// the 1 ms slot clock.  0 disables drift.
  double drift_max_ppm{0.0};

  // --- channel faults ---
  /// i.i.d. per-reception drop probability at the radio, independent of the
  /// collision model (decoder glitches, off-channel interference bursts).
  double drop_probability{0.0};
  /// Deep-fade episode arrivals across the whole network, per minute.
  double fade_rate_per_min{0.0};
  /// Mean episode duration (exponential).
  double fade_mean_duration_ms{500.0};
  /// Attenuation applied to the faded link; 60 dB puts any Table I link far
  /// below the detection threshold (a full outage).
  double fade_depth_db{60.0};

  [[nodiscard]] bool churn_enabled() const {
    return churn_rate_per_min > 0.0;
  }
  [[nodiscard]] bool channel_enabled() const {
    return drop_probability > 0.0 || fade_rate_per_min > 0.0;
  }
  [[nodiscard]] bool enabled() const {
    return churn_enabled() || channel_enabled() || drift_max_ppm > 0.0;
  }
};

}  // namespace firefly::fault
