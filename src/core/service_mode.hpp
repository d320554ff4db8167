// service_mode.hpp — long-lived service runs: open-ended churn soaks with
// windowed telemetry, rollback snapshots and bounded-memory guarantees.
//
// A one-shot trial (`EngineBase::run`) pulls its whole fault schedule up
// front, runs to convergence or a cap and exits.  A service run never
// "converges and exits": `run_service` slices simulated time into fixed
// telemetry windows and, per window, (1) pulls the next chunk of
// churn/fades from the same fault streams (src/fault/schedule_stream.hpp —
// chunk-invariant, so both modes see the same faults), (2) drives the
// simulator to the window boundary, (3) emits one sim::SoakWindow — the
// change in the engine's RunState record and the radio's counters since
// the last boundary — through the recorder, (4) prunes the protocols'
// dedup sets on their deterministic cadence (the bounded-memory invariant
// under churn) and (5) optionally takes a rollback snapshot.  Every side
// effect is keyed to absolute slot boundaries, so a run resumed from
// `EngineBase::restore()` replays bit-identically — the property
// test_service_mode pins down to byte-identical RunMetrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "fault/fault_injector.hpp"
#include "mac/radio.hpp"
#include "pco/sync_metrics.hpp"
#include "phy/energy.hpp"
#include "sim/simulator.hpp"
#include "sim/soak.hpp"
#include "util/rng.hpp"

namespace firefly::core {

struct ServiceConfig {
  /// Soak horizon in slots (1 slot = 1 ms).  run_service returns when the
  /// clock reaches it; calling run_service again extends the run.  At most
  /// INT32_MAX (run_service throws `std::invalid_argument` above it).
  std::int64_t duration_slots{1'000'000};
  /// Telemetry window length; one SoakWindow per window.
  std::int64_t window_slots{1'000};
  /// Rollback-snapshot cadence in slots; 0 = never.  Snapshots land on the
  /// first window boundary at or past each multiple.
  std::int64_t snapshot_every_slots{0};
  /// Prune the ST flood/announce dedup sets every this many firing periods
  /// (0 = never).  Without pruning those sets grow without bound under
  /// churn; the clears reuse the sets' slot arrays, so steady state is
  /// allocation-free.
  std::uint32_t dedup_clear_periods{8};
  /// Network-wide cap on headless-fragment re-elections per firing period
  /// (0 = unlimited).  Brakes the announce storm after a mass departure.
  std::uint32_t relabel_cap_per_period{8};
};

struct ServiceReport {
  RunMetrics metrics{};
  /// Non-empty: the soak was rejected before anything ran (invalid config,
  /// a fault plan that ends before the horizon, mobility enabled).
  std::string error;
  std::uint64_t windows{0};
  std::uint64_t windows_dropped{0};  ///< recorder pushes past its capacity (backpressure)
  std::uint64_t snapshots{0};
  std::uint64_t relabels{0};
  std::uint64_t relabels_suppressed{0};
  /// Scheduler-arena footprint at the end of the run (the memory probe).
  std::uint64_t arena_capacity{0};
  std::uint64_t arena_high_water{0};

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Deep copy of an engine's complete mutable state, built in one
/// aggregate initialisation by EngineBase::snapshot().  Owned by the caller
/// (or by the engine itself for run_service's periodic snapshots); it
/// restores only into the engine that produced it, whose serial it carries
/// — the cloned event callbacks capture that engine's addresses.
struct EngineSnapshot {
  std::uint64_t engine_serial;  ///< serial of the engine that took it
  sim::Simulator::Snapshot sim;
  std::vector<Device> devices;
  /// The hot region's bytes, verbatim (one memcpy each way), and the
  /// index-aligned neighbour tables (restored element-wise so their
  /// capacity is reused — a restore allocates nothing at steady state).
  std::vector<std::byte> hot_block;
  std::vector<NeighborTable> hot_neighbors;
  pco::ConvergenceDetector detector;
  pco::LocalSyncDetector local_detector;
  util::Rng control_rng;
  util::Rng mobility_rng;
  util::Rng fading_rng;
  mac::RadioMedium::StateSnapshot radio;
  phy::EnergyMeter energy;
  std::optional<fault::FaultInjector> injector;
  std::uint64_t protocol_word;
  EngineBase::RunState state;
  /// The run mode and the settings run_service installs when it starts the
  /// run.  A snapshot taken before the first run_service restores one-shot
  /// mode, so the next run_service starts the soak afresh.
  bool service;
  bool stop_on_convergence;
  std::uint32_t max_periods;
  std::uint32_t relabel_cap_per_period;
};

/// Deploy the scenario and run one service soak of the chosen protocol,
/// streaming windows through `recorder` (may be null).  The service-mode
/// analogue of run_trial.
[[nodiscard]] ServiceReport run_service_trial(Protocol protocol,
                                              const ScenarioConfig& config,
                                              const ServiceConfig& service,
                                              const RunHooks& hooks = {},
                                              sim::SoakRecorder* recorder = nullptr);

}  // namespace firefly::core
