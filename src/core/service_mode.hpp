// service_mode.hpp — long-lived service runs: open-ended churn soaks with
// windowed telemetry, rollback snapshots and bounded-memory guarantees.
//
// A one-shot trial (`EngineBase::run`) expands its fault schedule up front,
// runs to convergence or a cap and exits.  A service run never "converges
// and exits": `run_service` slices simulated time into fixed telemetry
// windows and, per window, (1) pulls the next chunk of churn/fades from the
// regenerating fault streams (src/fault/schedule_stream.hpp — infinite,
// seed-replayable, constant memory), (2) drives the simulator to the window
// boundary, (3) emits one sim::SoakWindow through the recorder, (4) prunes
// the protocols' dedup sets on their deterministic cadence (the bounded-
// memory invariant under churn) and (5) optionally takes a rollback
// snapshot.  Every side effect is keyed to absolute slot boundaries, so a
// run resumed from `EngineBase::restore()` replays bit-identically — the
// property test_service_mode pins down to byte-identical RunMetrics.
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
#include "fault/schedule_stream.hpp"
#include "mac/radio.hpp"
#include "pco/sync_metrics.hpp"
#include "phy/energy.hpp"
#include "sim/simulator.hpp"
#include "sim/soak.hpp"
#include "util/rng.hpp"

namespace firefly::core {

struct ServiceConfig {
  /// Soak horizon in slots (1 slot = 1 ms).  run_service returns when the
  /// clock reaches it; calling run_service again extends the run.
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

/// Deep copy of an engine's complete mutable state.  Owned by the caller
/// (or by the engine itself for run_service's periodic snapshots); only
/// meaningful against the engine that produced it — the cloned event
/// callbacks capture that engine's addresses.
struct EngineSnapshot {
  sim::Simulator::Snapshot sim;
  std::vector<Device> devices;
  /// The hot region's bytes, verbatim (one memcpy each way), and the
  /// index-aligned neighbour tables (restored element-wise so their
  /// capacity is reused — a restore allocates nothing at steady state).
  std::vector<std::byte> hot_block;
  std::vector<NeighborTable> hot_neighbors;
  std::optional<pco::ConvergenceDetector> detector;
  std::optional<pco::LocalSyncDetector> local_detector;
  std::optional<util::Rng> control_rng;
  std::optional<util::Rng> mobility_rng;
  std::optional<util::Rng> fading_rng;
  mac::RadioMedium::StateSnapshot radio;
  std::optional<phy::EnergyMeter> energy;
  std::optional<fault::FaultInjector> injector;
  std::optional<fault::ChurnStream> churn_stream;
  std::optional<fault::FadeStream> fade_stream;
  std::uint64_t protocol_word = 0;

  // EngineBase scalar state (convergence marks, resilience accumulators,
  // fault and relabel counters).
  std::int64_t sync_slot = -1;
  std::int64_t discovery_slot = -1;
  std::int64_t protocol_slot = -1;
  std::int64_t local_converged_slot = -1;
  std::uint32_t crashes = 0;
  std::uint32_t recoveries = 0;
  bool was_aligned = false;
  std::int64_t resilience_last_slot = -1;
  std::int64_t desync_start = -1;
  std::int64_t observed_slots = 0;
  std::int64_t in_sync_slots = 0;
  std::uint32_t resyncs = 0;
  double resync_sum_ms = 0.0;
  double resync_max_ms = 0.0;
  bool repair_base_set = false;
  std::uint64_t repair_rach2_base = 0;
  std::uint32_t service_fade_episodes = 0;
  std::int64_t relabel_window = -1;
  std::uint32_t relabels_in_window = 0;
  std::uint64_t relabels_total = 0;
  std::uint64_t relabels_suppressed = 0;
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
