// params.hpp — protocol parameters shared by the FST baseline and the
// proposed ST algorithm.
//
// Defaults follow the paper where it is explicit (Table I) and the firefly
// synchronisation literature where it is not: a 100-slot (100 ms) firing
// period, Mirollo–Strogatz coupling with dissipation a = 3 and pulse
// strength ε = 0.1 (α ≈ 1.35, β ≈ 0.018 — comfortably inside the α > 1,
// β > 0 convergence region), and a short refractory window to suppress
// pulse echo under the 1-slot delivery delay.
//
// The values no scenario varies are `static constexpr` members: the
// refractory window, the convergence tolerance and check cadence, the
// service-interest count, the neighbour-weight smoothing, ST's discovery
// window and beacons, H_Connect round, connect timeout, retry cap, tree
// staleness and head lease, DESYNC's tolerance, jump strength and sustain
// count, and the mobility pause and update cadence.  Engines read them as
// `params_.x` like any other field.
#pragma once

#include <cstdint>

#include "fault/fault_plan.hpp"
#include "pco/prc.hpp"

namespace firefly::core {

struct ProtocolParams {
  // --- oscillator ---
  std::uint32_t period_slots{100};      ///< T: firing period (slots of 1 ms)
  pco::PrcParams prc{3.0, 0.05};        ///< eq. 5 coupling (a, ε): α≈1.16, β≈0.008
  static constexpr std::uint32_t refractory_slots = 5;  ///< post-fire deafness (echo guard)

  // --- convergence detection ---
  static constexpr std::uint32_t tolerance_slots = 2;  ///< max spread of aligned firing
  static constexpr std::uint32_t check_interval_slots = 25;
  /// Give-up bound for a trial.  max_slots() above INT32_MAX is rejected
  /// by the engine (`std::invalid_argument`).
  std::uint32_t max_periods{400};
  /// Stop the simulation at the convergence instant (the Fig. 3 measurement
  /// mode).  Long-running scenarios (mobility, observation) set this false
  /// and run to max_periods; convergence is still recorded.
  bool stop_on_convergence{true};

  // --- neighbour table ---
  static constexpr double weight_ewma = 0.25;  ///< smoothing of PS-strength weights
  static constexpr std::uint16_t service_count = 4;  ///< distinct service-interest codes

  // --- ST (proposed) only ---
  static constexpr std::uint32_t discovery_slots = 100;  ///< discovery window (one default period)
  static constexpr std::uint32_t discovery_beacons = 4;  ///< beacons per device in the window
  static constexpr std::uint32_t round_slots = 32;  ///< head H_Connect attempt cadence
  static constexpr std::uint32_t connect_timeout_slots = 8;
  static constexpr std::uint32_t tree_stale_periods = 4;  ///< drop tree edges silent this long

  // --- ST robustness (fault hardening) ---
  /// Timed-out H_Connects a head tolerates before passing headship on
  /// (Change_head); each retry doubles the wait (bounded exponential
  /// backoff), so attempt k times out after connect_timeout_slots << k.
  static constexpr std::uint32_t connect_max_retries = 4;
  /// Head lease: a member that has heard no proof of a live head for its
  /// fragment (sync flood, head token, merge) for this many periods declares
  /// the fragment headless, re-labels the reachable remnant under its own id
  /// and takes headship, so orphaned partitions re-join via H_Connect.
  static constexpr std::uint32_t head_lease_periods = 8;

  // --- DESYNC only (proto/desync.*; arXiv:1210.2122) ---
  /// Midpoint-jump strength α ∈ (0, 1]: each firing moves toward the
  /// midpoint of the two phase neighbours by this fraction.  The literature
  /// default 0.95 converges fast and stays stable under dithered rounding.
  static constexpr double desync_alpha = 0.95;
  /// A device counts as balanced when its post-jump midpoint residual is at
  /// most this many slots.
  static constexpr std::uint32_t desync_tolerance_slots = 2;
  /// Consecutive convergence checks every measured device must stay
  /// balanced for before the protocol goal latches.
  static constexpr std::uint32_t desync_sustain_checks = 4;

  // --- fault injection (default-constructed plan = fault-free run) ---
  fault::FaultPlan faults{};

  // --- mobility extension (paper future work; 0 = static Table I) ---
  double mobility_speed_mps{0.0};       ///< random-waypoint speed
  static constexpr double mobility_pause_s = 2.0;
  static constexpr std::uint32_t mobility_update_slots = 50;

  // --- duty-cycling extension (refs [8],[9]; 0/0 = always awake) ---
  // A device listens for duty_awake_slots out of every duty_period_slots,
  // with a per-device offset so wake windows are spread.  Transmissions
  // wake the radio and are always allowed; only reception is gated.
  std::uint32_t duty_awake_slots{0};
  std::uint32_t duty_period_slots{0};

  [[nodiscard]] bool duty_cycled() const {
    return duty_period_slots > 0 && duty_awake_slots < duty_period_slots;
  }
  [[nodiscard]] double awake_fraction() const {
    if (!duty_cycled()) return 1.0;
    return static_cast<double>(duty_awake_slots) / static_cast<double>(duty_period_slots);
  }

  [[nodiscard]] std::int64_t max_slots() const {
    return static_cast<std::int64_t>(max_periods) * period_slots;
  }
};

}  // namespace firefly::core
