// service_mode.cpp — run_service window loop and snapshot/restore.  See
// service_mode.hpp for the model.
#include "core/service_mode.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "proto/registry.hpp"

namespace firefly::core {

// ---------------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------------

std::unique_ptr<EngineSnapshot> EngineBase::snapshot() {
  // Mobility rebuilds position-derived caches (delivery lists, shadowing
  // memo) every step; a checkpoint does not carry them.  run_service
  // rejects mobile scenarios up front, so this only trips on misuse.
  if (params_.mobility_speed_mps != 0.0) {
    throw std::invalid_argument("snapshot() supports static scenarios only");
  }
  // The whole hot scalar state is one contiguous region: snapshot it as a
  // flat byte copy.  Neighbour tables own heap storage, so they ride
  // separately (element-wise copies, capacity-reusing on restore).
  return std::unique_ptr<EngineSnapshot>(new EngineSnapshot{
      .engine_serial = serial_,
      .sim = sim_.snapshot(),
      .devices = devices_,
      .hot_block = std::vector<std::byte>(hot_.block(), hot_.block() + hot_.block_bytes()),
      .hot_neighbors = hot_.neighbors,
      .detector = detector_,
      .local_detector = local_detector_,
      .control_rng = control_rng_,
      .mobility_rng = mobility_rng_,
      .fading_rng = channel_->fading_rng(),
      .radio = radio_.save_state(),
      .energy = energy_,
      .injector = injector_ != nullptr ? std::optional(*injector_) : std::nullopt,
      .protocol_word = protocol_snapshot_word(),
      .state = state_,
      .service = service_,
      .stop_on_convergence = params_.stop_on_convergence,
      .max_periods = params_.max_periods,
      .relabel_cap_per_period = relabel_cap_per_period_,
  });
}

void EngineBase::restore(const EngineSnapshot& snap) {
  // Checked before anything is touched: a foreign snapshot's cloned
  // callbacks capture the other engine, and a mismatched one would overrun
  // the hot-region memcpy below.
  if (snap.engine_serial != serial_) {
    throw std::invalid_argument(
        "restore(): the snapshot was taken by another engine; a snapshot only "
        "restores into the engine that produced it");
  }
  if (snap.devices.size() != devices_.size() ||
      snap.hot_block.size() != hot_.block_bytes()) {
    throw std::invalid_argument(
        "restore(): the snapshot's device count or hot-region size differs from "
        "this engine's");
  }

  sim_.restore(snap.sim);
  // Element-wise: pending callbacks hold `&devices_[i]`, so the vector's
  // storage must not move.
  for (std::size_t i = 0; i < devices_.size(); ++i) devices_[i] = snap.devices[i];
  std::memcpy(hot_.block(), snap.hot_block.data(), snap.hot_block.size());
  // Element-wise for the same reason as devices_: assignment reuses each
  // table's existing slot array, so a steady-state restore is
  // allocation-free and the arrays never move.
  for (std::size_t i = 0; i < hot_.neighbors.size(); ++i) {
    hot_.neighbors[i] = snap.hot_neighbors[i];
  }
  detector_ = snap.detector;
  local_detector_ = snap.local_detector;
  control_rng_ = snap.control_rng;
  mobility_rng_ = snap.mobility_rng;
  channel_->fading_rng() = snap.fading_rng;
  radio_.restore_state(snap.radio);
  energy_ = snap.energy;
  // In place: the radio holds the injector's address.  The engine builds
  // its injector at construction, so a snapshot holds one exactly when the
  // engine does.  The fault streams ride inside it: a pre-service snapshot
  // holds them at slot 0, so restoring it restarts the soak's faults too.
  if (injector_ != nullptr && snap.injector) *injector_ = *snap.injector;
  protocol_restore_word(snap.protocol_word);
  state_ = snap.state;
  discovery_resume_ = 0;
  // The run mode and the settings run_service installs: a pre-service
  // snapshot returns the engine to one-shot mode, so the next run_service
  // restarts the run exactly as the first call did.
  service_ = snap.service;
  params_.stop_on_convergence = snap.stop_on_convergence;
  params_.max_periods = snap.max_periods;
  relabel_cap_per_period_ = snap.relabel_cap_per_period;
}

// ---------------------------------------------------------------------------
// The service loop
// ---------------------------------------------------------------------------

ServiceReport EngineBase::run_service(const ServiceConfig& cfg,
                                      sim::SoakRecorder* recorder) {
  if (cfg.duration_slots > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument(
        "run_service: duration_slots above INT32_MAX (32-bit slot stamps)");
  }
  ServiceReport report;
  if (cfg.duration_slots <= 0 || cfg.window_slots <= 0) {
    report.error = "service mode requires positive duration_slots and window_slots";
    return report;
  }
  if (params_.mobility_speed_mps > 0.0) {
    report.error =
        "service mode supports static scenarios only: snapshot/restore does "
        "not carry the mobility caches";
    return report;
  }
  report.error = fault::validate_service_horizon(params_.faults, cfg.duration_slots);
  if (!report.error.empty()) return report;

  if (!service_) {
    service_ = true;  // start_run() leaves the faults to the window loop
    params_.stop_on_convergence = false;  // a service never "converges and exits"
    relabel_cap_per_period_ = cfg.relabel_cap_per_period;
    // collect_metrics() clamps "never happened" marks to max_slots(); stretch
    // the cap to the soak horizon so those sentinels stay past the run.
    const auto periods =
        (cfg.duration_slots + params_.period_slots - 1) / params_.period_slots;
    params_.max_periods =
        std::max<std::uint32_t>(params_.max_periods, static_cast<std::uint32_t>(periods));
    const auto n = static_cast<std::uint32_t>(devices_.size());
    churn_chunk_.reserve(64);
    fade_chunk_.reserve(64);
    // Bounded-memory invariant: pre-size the containers whose growth is
    // "new lifetime record" shaped so the steady state never allocates.
    // Tree adjacency is bounded by the device count; the radio's per-slot
    // scratch by the transmissions a slot can carry (every live device
    // fires or relays at most a couple of PSs per slot — 2·n covers the
    // worst storm the relabel cap admits).
    for (Device& d : devices_) {
      hot_.neighbors[d.id].reserve(n > 0 ? n - 1 : 0);
      d.tree_neighbors.reserve(n > 0 ? n - 1 : 0);
    }
    radio_.reserve_delivery(static_cast<std::size_t>(2) * n);
    start_run();
  }

  // Dedup pruning and snapshots key off *absolute* slot multiples (not
  // "every k-th window of this call"), so a run resumed from a snapshot
  // replays the identical side-effect sequence.
  const std::int64_t clear_span =
      cfg.dedup_clear_periods > 0
          ? static_cast<std::int64_t>(cfg.dedup_clear_periods) * params_.period_slots
          : 0;

  // Windows report the change in the run state and the radio's counters
  // since the previous boundary.
  std::int64_t slot = current_slot();
  RunState prev = state_;
  mac::TrafficCounters prev_traffic = radio_.counters();
  while (slot < cfg.duration_slots) {
    const std::int64_t window_end = std::min(slot + cfg.window_slots, cfg.duration_slots);
    schedule_faults_until(window_end);
    sim_.run_until(window_end);
    const RunState now = state_;
    const mac::TrafficCounters traffic = radio_.counters();

    sim::SoakWindow w;
    w.index = static_cast<std::uint64_t>(slot / cfg.window_slots);
    w.start_slot = slot;
    w.end_slot = window_end;
    std::uint32_t live = 0;
    for (std::uint32_t i = 0; i < devices_.size(); ++i) {
      if (!hot_.down[i]) ++live;
    }
    w.live_devices = live;
    w.crashes = now.crashes - prev.crashes;
    w.recoveries = now.recoveries - prev.recoveries;
    w.messages = traffic.total_tx() - prev_traffic.total_tx();
    w.deliveries = traffic.deliveries - prev_traffic.deliveries;
    w.collisions = traffic.collisions - prev_traffic.collisions;
    w.fault_drops = traffic.fault_drops - prev_traffic.fault_drops;
    w.msg_rate_per_slot =
        static_cast<double>(w.messages) / static_cast<double>(window_end - slot);
    w.synced_once = now.sync_slot >= 0;
    const std::int64_t observed_delta = now.observed_slots - prev.observed_slots;
    const std::int64_t in_sync_delta = now.in_sync_slots - prev.in_sync_slots;
    // Resilience sampling only starts after first sync; before that the
    // fraction is pinned by definition (never synced => 0).
    w.sync_fraction =
        observed_delta > 0
            ? static_cast<double>(in_sync_delta) / static_cast<double>(observed_delta)
            : ((w.synced_once && now.was_aligned) ? 1.0 : 0.0);
    w.resyncs = now.resyncs - prev.resyncs;
    w.mean_resync_ms = w.resyncs > 0
                           ? (now.resync_sum_ms - prev.resync_sum_ms) / w.resyncs
                           : 0.0;
    w.relabels = now.relabels_total - prev.relabels_total;
    w.relabels_suppressed = now.relabels_suppressed - prev.relabels_suppressed;
    const sim::Simulator::SchedulerStats stats = sim_.scheduler_stats();
    w.events_live = stats.live_events;
    w.arena_capacity = stats.arena_capacity;
    w.arena_high_water = stats.arena_high_water;
    w.events_processed = sim_.events_processed();
    fill_soak_window(w);  // protocol-specific gauges (DESYNC error etc.)
    if (recorder != nullptr) recorder->push(w);
    ++report.windows;
    prev = now;
    prev_traffic = traffic;

    // Bounded memory: drop the protocols' flood/announce dedup memory on a
    // deterministic cadence.  The sets' clear() keeps their slot arrays, so
    // this allocates nothing; losing cross-epoch dedup only costs an extra
    // relay for floods that straddle the boundary.
    if (clear_span > 0 && slot / clear_span != window_end / clear_span) {
      for (Device& d : devices_) {
        d.announces_seen.clear();
        d.sync_floods_seen.clear();
      }
    }
    // Snapshot last, after the window was emitted and the dedup pruned: the
    // checkpoint then holds exactly the state the next window starts from.
    if (cfg.snapshot_every_slots > 0 &&
        slot / cfg.snapshot_every_slots != window_end / cfg.snapshot_every_slots) {
      service_snapshot_ = snapshot();
      ++report.snapshots;
    }
    slot = window_end;
  }

  report.metrics = collect_metrics();
  const sim::Simulator::SchedulerStats stats = sim_.scheduler_stats();
  report.arena_capacity = stats.arena_capacity;
  report.arena_high_water = stats.arena_high_water;
  report.relabels = state_.relabels_total;
  report.relabels_suppressed = state_.relabels_suppressed;
  if (recorder != nullptr) report.windows_dropped = recorder->dropped();
  return report;
}

// ---------------------------------------------------------------------------
// run_service_trial
// ---------------------------------------------------------------------------

ServiceReport run_service_trial(Protocol protocol, const ScenarioConfig& config,
                                const ServiceConfig& service, const RunHooks& hooks,
                                sim::SoakRecorder* recorder) {
  std::vector<geo::Vec2> positions = deploy(config);
  std::unique_ptr<EngineBase> engine = proto::Registry::instance().make(
      protocol, std::move(positions), config.protocol, config.radio, config.seed);
  assert(engine != nullptr);  // every Protocol enumerator has a built-in backend
  engine->set_trace(hooks.trace);
  engine->set_telemetry(hooks.telemetry);
  ServiceReport report = engine->run_service(service, recorder);
  if (hooks.progress != nullptr) hooks.progress->advance();
  return report;
}

}  // namespace firefly::core
