// engine.hpp — common plumbing for the protocol backends in src/proto/.
//
// `EngineBase` owns the whole simulated world of one trial: the event
// scheduler, the Table I channel, the radio medium, the device array and
// the convergence detector.  A protocol backend (src/proto/: st, fst,
// birthday, desync) is the strategy layered on top: it overrides the
// protected hooks — `on_start`, `deliver_batched`, `emit_fire_broadcast`,
// convergence/metrics/snapshot participation — while the base supplies the
// event-driven oscillator (schedule/reschedule/fire), neighbour-table
// maintenance with RSSI ranging, periodic convergence checks and the final
// metrics sweep.  Backends are resolved by name or enum through
// `proto::Registry`, so run_trial, run_service and the CLI never name a
// concrete engine class.
//
// Per-device state is split in two: the hot fields the per-slot sweeps touch
// live in `hot_` (core::DeviceHot — flat index-aligned arrays, one
// RegionArena block per trial), the cold rest in `devices_` (core::Device).
// Backends index both by the dense device id.
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "core/device.hpp"
#include "core/device_soa.hpp"
#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/trace.hpp"
#include "fault/fault_injector.hpp"
#include "geo/mobility.hpp"
#include "geo/point.hpp"
#include "mac/radio.hpp"
#include "obs/timer.hpp"
#include "pco/sync_metrics.hpp"
#include "phy/channel.hpp"
#include "phy/energy.hpp"
#include "phy/rssi.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace firefly::sim {
class SoakRecorder;
struct SoakWindow;
}  // namespace firefly::sim

namespace firefly::core {

struct ServiceConfig;
struct ServiceReport;
struct EngineSnapshot;

class EngineBase {
 public:
  /// The engine's scalar run state, declared once: snapshot() and restore()
  /// copy it whole, and run_service's windows report deltas between two
  /// copies of it.
  struct RunState {
    // Convergence marks (-1: not yet).
    std::int64_t sync_slot = -1;
    std::int64_t discovery_slot = -1;
    std::int64_t protocol_slot = -1;
    std::int64_t local_converged_slot = -1;
    // Fault lifecycle; fade_episodes counts the episodes scheduled so far.
    std::uint32_t crashes = 0;
    std::uint32_t recoveries = 0;
    std::uint32_t fade_episodes = 0;
    // Resilience observables, sampled in check_convergence.
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
    // Relabel storm-cap bookkeeping (see relabel_permitted()).
    std::int64_t relabel_window = -1;
    std::uint32_t relabels_in_window = 0;
    std::uint64_t relabels_total = 0;
    std::uint64_t relabels_suppressed = 0;
  };

  EngineBase(std::vector<geo::Vec2> positions, ProtocolParams params,
             phy::RadioParams radio_params, std::uint64_t seed);
  virtual ~EngineBase();  // out of line: unique_ptr members of incomplete types

  EngineBase(const EngineBase&) = delete;
  EngineBase& operator=(const EngineBase&) = delete;

  /// Run the trial to convergence or the max_periods cap; fills metrics.
  RunMetrics run();

  // --- long-lived service mode (implemented in core/service_mode.cpp) ---
  /// Open-ended soak: windowed run loop fed by regenerating fault-schedule
  /// streams, emitting one SoakWindow per window through `recorder` (may be
  /// null), taking periodic rollback snapshots when configured.  Callable
  /// again after restore() to resume the run to the same horizon; the
  /// resumed run replays bit-identically.  Throws `std::invalid_argument`
  /// on a horizon above INT32_MAX slots, as the constructor does on such a
  /// max_slots().  See service_mode.hpp.
  ServiceReport run_service(const ServiceConfig& cfg, sim::SoakRecorder* recorder = nullptr);

  /// In-process rollback checkpoint of the complete mutable world: the
  /// scheduler (slot calendar and its arena, callbacks cloned), devices, detectors,
  /// radio traffic state, every RNG stream and the fault-schedule streams.
  /// Static scenarios only: snapshot() throws std::invalid_argument on a
  /// mobile one (mobility rebuilds position-derived caches a checkpoint does
  /// not carry).  restore() rewinds THIS engine; it is not a serialised
  /// file, and it throws std::invalid_argument on a snapshot another engine
  /// took or whose device count or hot-region size differs.
  /// test_service_mode proves a restored run reproduces byte-identical
  /// RunMetrics.
  [[nodiscard]] std::unique_ptr<EngineSnapshot> snapshot();
  void restore(const EngineSnapshot& snap);
  /// Latest snapshot taken by run_service's snapshot_every cadence (null
  /// until the first one).
  [[nodiscard]] const EngineSnapshot* service_snapshot() const {
    return service_snapshot_.get();
  }

  /// Cold per-device state (identity, position, ST tree bookkeeping).
  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  /// Read-only views of device `i`'s hot state, for inspection between
  /// steps and after a run.
  [[nodiscard]] const NeighborTable& neighbors(std::uint32_t i) const {
    return hot_.neighbors[i];
  }
  [[nodiscard]] std::int64_t last_fire_slot(std::uint32_t i) const {
    return hot_.last_fire_slot[i];
  }
  [[nodiscard]] std::uint16_t fragment(std::uint32_t i) const { return hot_.fragment[i]; }
  [[nodiscard]] const ProtocolParams& params() const { return params_; }
  /// RSSI ranging against this run's path-loss model; distance estimates
  /// are derived from NeighborInfo::weight_dbm on demand.
  [[nodiscard]] const phy::RssiRanging& ranging() const { return ranging_; }

  /// The memory ledger: capacity bytes per named structure, computed on
  /// demand (no hot path keeps it).  Buffers never shrink, so after a run it
  /// is each structure's peak.  Entries, in order: candidate_cache,
  /// staging_chunks, order, rx_entries, radio_other (RadioMedium::MemoryUse);
  /// neighbor_tables; dedup_sets and tree_lists (ST's per-device sets and
  /// lists); calendar_arena (the scheduler's event records); hot_region
  /// (DeviceHot's block); reliable_links (the engine's list and the local
  /// detector's edges); device_records (the cold Device records).  Left
  /// out: the detectors' and energy meter's per-device arrays, the fault
  /// injector, mobility waypoints, the channel's models and closures, each
  /// well under 1 % of a static N = 2000 trial.
  [[nodiscard]] MemoryReport memory_report() const;

  /// Attach an optional trace sink (not owned; may be null).
  void set_trace(TraceSink* sink) { trace_ = sink; }
  /// Attach an optional telemetry context (not owned; may be null).  With
  /// no context every instrumentation site is a single pointer test, the
  /// run consumes no extra randomness and RunMetrics is bit-identical to
  /// an uninstrumented run.
  void set_telemetry(obs::Telemetry* telemetry);

 protected:
  // --- protocol hooks (the backends override these) ---
  /// Called once before the event loop starts.
  virtual void on_start() = 0;
  /// Protocol reaction to one slot's decoded PSs.  The batch holds every
  /// reception the radio resolved this slot, in deterministic receiver
  /// order; engines sweep it once (see sweep_batch), fusing their PCO phase
  /// update into the same pass.
  virtual void deliver_batched(const mac::RxBatch& batch) = 0;
  /// Broadcast emitted when `device` fires (protocols differ in payload).
  virtual void emit_fire_broadcast(Device& device) = 0;
  /// Hook for metrics specific to a protocol (tree stats, desync error…).
  virtual void fill_protocol_metrics(RunMetrics& /*metrics*/) const {}
  /// Protocol-specific observables for one service-mode telemetry window,
  /// sampled at the window's end slot.
  virtual void fill_soak_window(sim::SoakWindow& /*window*/) const {}
  /// Protocol-specific termination condition folded into convergence.
  /// The ST algorithm (paper Algorithm 1) runs `while |ST| != 1`, so its
  /// convergence additionally requires the spanning structure to be
  /// complete; DESYNC requires the anti-phase fixed point; the baseline has
  /// no such requirement.
  [[nodiscard]] virtual bool protocol_complete() const { return true; }
  /// Whether convergence includes the global firing-alignment goal.
  /// Discovery-only baselines (birthday protocols) and anti-sync schemes
  /// (DESYNC) waive it by design.
  [[nodiscard]] virtual bool requires_sync() const { return true; }
  /// Protocol-state reset when a crashed device cold-boots (fault
  /// injection).  The engine already clears the oscillator and the
  /// neighbour table; ST additionally resets its fragment state here.
  virtual void on_recover(Device& /*device*/) {}
  /// Protocol-level scalar state for snapshot/restore, packed into one word
  /// (ST: the fresh-label cursor; DESYNC: the sustained-check counter).
  /// Per-device state rides along with the cold Device records and the hot
  /// block, and needs nothing here.
  [[nodiscard]] virtual std::uint64_t protocol_snapshot_word() const { return 0; }
  virtual void protocol_restore_word(std::uint64_t /*word*/) {}

  /// Oscillator counter of device `i` at `slot`, derived from its scheduled
  /// natural firing (the event-driven counter formulation).
  [[nodiscard]] std::uint32_t counter_at(std::uint32_t i, std::int64_t slot) const {
    const std::int64_t remaining = hot_.next_fire_slot[i] - slot;
    if (remaining <= 0) return params_.period_slots;
    if (remaining >= static_cast<std::int64_t>(params_.period_slots)) return 0;
    return params_.period_slots - static_cast<std::uint32_t>(remaining);
  }
  [[nodiscard]] bool refractory_at(std::uint32_t i, std::int64_t slot) const {
    return slot <= hot_.refractory_until_slot[i];
  }

  /// One pass over a slot's decoded batch: per entry, in radio dispatch
  /// order — skip crashed receivers, build the entry's full record, refresh
  /// the neighbour table, run the protocol reaction `fn(record)`, or
  /// `fn(record, entry)` with the sender's just-refreshed table entry when
  /// `fn` takes it.  Walks the flat arrays directly and prefetches the
  /// neighbour slot kAhead entries ahead.
  template <typename Fn>
  void sweep_batch(const mac::RxBatch& batch, Fn&& fn) {
    constexpr std::size_t kAhead = 8;
    const mac::RxEntry* entries = batch.entries;
    for (std::size_t k = 0; k < batch.count; ++k) {
      if (k + kAhead < batch.count) {
        hot_.neighbors[entries[k + kAhead].rx_index].prefetch(batch.sender(k + kAhead));
      }
      if (hot_.down[entries[k].rx_index]) continue;
      const mac::RxRecord r = batch[k];
      const NeighborInfo& entry = update_neighbor(r);
      if constexpr (std::is_invocable_v<Fn&, const mac::RxRecord&, const NeighborInfo&>) {
        fn(r, entry);
      } else {
        fn(r);
      }
    }
  }

  /// Re-election storm brake.  Headless-fragment reclaims call this before
  /// relabelling; at most `relabel_cap_per_period` are granted per firing
  /// period network-wide (0 = unlimited, the one-shot default).  A mass
  /// departure can orphan many fragments at once; without the cap every
  /// orphan floods a fresh announce wave in the same period.  Suppressed
  /// reclaims retry next period via the existing lease timers.  Grants and
  /// suppressions are counted for the soak telemetry either way.
  [[nodiscard]] bool relabel_permitted();

  // --- fault injection (tentpole subsystem) ---
  /// Crash a device now: radio off, firing event cancelled, excluded from
  /// the convergence detectors until it recovers.
  void crash_device(std::uint32_t id);
  /// Recover a crashed device with full cold-boot state: empty neighbour
  /// table, fresh random phase, protocol state reset via `on_recover`.
  void recover_device(std::uint32_t id);

  // --- run phases (split so tests can step the world manually) ---
  /// Schedule initial phases, the convergence checker, mobility and the
  /// fault plan; call once before driving the simulator.
  void start_run();
  /// Harvest metrics from the current simulator state.
  [[nodiscard]] RunMetrics collect_metrics();

  // --- oscillator driving (shared) ---
  /// Current absolute slot.
  [[nodiscard]] std::int64_t current_slot() const { return sim_.now(); }
  /// (Re)schedule device i's natural firing event at next_fire_slot(i).
  void schedule_fire(std::uint32_t i);
  /// Fire now: broadcast, reset the counter (to `post_counter` — nonzero
  /// for reachback-aligned absorptions), refractory, inform the detector.
  void fire(std::uint32_t i, std::uint32_t post_counter = 0);
  /// Apply the PRC jump for one received pulse, compensating the slot(s) of
  /// delivery delay using the counter embedded in the PS; reschedules or
  /// fires on absorption.
  void apply_pulse_coupling(const mac::RxRecord& record);
  /// Slots elapsed since the record's transmission slot.
  [[nodiscard]] std::uint32_t elapsed_slots(const mac::RxRecord& record) const;
  /// Device i's current counter, for embedding into outgoing PSs.
  [[nodiscard]] std::uint16_t counter_field(std::uint32_t i) const;
  /// A fresh random preamble (LTE UEs draw RACH preambles uniformly from
  /// the cell's pool on every attempt).
  [[nodiscard]] mac::Preamble random_preamble(mac::RachCodec codec);
  /// Record a trace event when a sink is attached.
  void trace(TraceKind kind, std::uint32_t device, std::uint32_t a = 0,
             std::uint32_t b = 0) {
    if (trace_ != nullptr) trace_->record(static_cast<double>(sim_.now()), device, kind, a, b);
  }
  /// Adopt an absolute counter value (ST merge sync); reschedules or fires.
  void adopt_counter(std::uint32_t i, std::uint32_t counter);

  // --- discovery (shared) ---
  /// Update the receiver's neighbour table from a decoded PS (any type);
  /// returns the sender's entry.
  const NeighborInfo& update_neighbor(const mac::RxRecord& record);
  /// Whether every reliable link with both endpoints up is known both ways.
  /// Resumes at the first link the last call found undiscovered (tables only
  /// grow between lifecycle events); a crash, recover or restore() resets it.
  [[nodiscard]] bool discovery_complete();

  sim::Simulator sim_;
  std::unique_ptr<phy::Channel> channel_;
  mac::RadioMedium radio_;
  ProtocolParams params_;
  std::vector<Device> devices_;  ///< cold per-device state
  DeviceHot hot_;                ///< hot per-device state (flat arrays)
  pco::ConvergenceDetector detector_;       ///< Fig. 3 criterion: global alignment
  pco::LocalSyncDetector local_detector_;   ///< diagnostic: per-link alignment
  util::RngFactory rng_factory_;
  util::Rng control_rng_;  ///< protocol-level randomness (initial phases, jitter)
  phy::RssiRanging ranging_;
  phy::EnergyMeter energy_;
  obs::Telemetry* telemetry_ = nullptr;   ///< null = telemetry off (default)
  obs::Counter* fires_counter_ = nullptr; ///< pre-bound "engine.fires"
  // Convergence requires BOTH of the paper's simultaneous goals: sustained
  // global firing alignment AND complete neighbour discovery over every
  // reliable proximity link (both directions).  The local detector checks
  // alignment over the same list.
  std::vector<pco::LocalSyncDetector::Edge> reliable_links_;

 private:
  void check_convergence();
  void finalize_metrics(RunMetrics& metrics) const;
  /// The one bridge from the fault process to the simulator, for both run
  /// modes: pull the injector's streams up to `to_slot` and schedule every
  /// churn transition, then each fade's start and end, wherever it lands.
  /// One-shot trials call it once, with max_slots(); run_service once per
  /// window.  No-op without an injector.
  void schedule_faults_until(std::int64_t to_slot);
  /// Accumulate sync-uptime and desync/resync episodes (sampled at the
  /// convergence-check cadence once the network has synchronised once).
  void sample_resilience(std::int64_t slot);
  /// Mobility extension: advance every device along its random-waypoint
  /// trajectory, move it on the radio, invalidate memoised shadowing and
  /// rebuild the delivery cache.  Installed only when
  /// params.mobility_speed_mps > 0.
  void start_mobility();
  void mobility_step();

  RunState state_;
  std::size_t discovery_resume_ = 0;  // first link not known discovered
  geo::Area mobility_area_{};
  util::Rng mobility_rng_;
  std::vector<geo::RandomWaypoint> movers_;
  TraceSink* trace_ = nullptr;
  /// Process-wide serial: a snapshot restores only into the engine whose
  /// serial it carries (its cloned callbacks capture that engine).
  const std::uint64_t serial_;

  std::unique_ptr<fault::FaultInjector> injector_;

  // --- service mode (run_service; implemented in core/service_mode.cpp) ---
  bool service_ = false;  // run_service started the run; faults come per window
  std::uint32_t relabel_cap_per_period_ = 0;  // see relabel_permitted()
  std::vector<fault::ChurnEvent> churn_chunk_;  // reused fault-pull buffers
  std::vector<fault::FadeEpisode> fade_chunk_;
  std::unique_ptr<EngineSnapshot> service_snapshot_;
};

}  // namespace firefly::core
