// service_mode.cpp — run_service window loop, snapshot/restore and the
// regenerating fault-schedule bridge.  See service_mode.hpp for the model.
#include "core/service_mode.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
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

  auto snap = std::make_unique<EngineSnapshot>();
  snap->sim = sim_.snapshot();
  snap->devices = devices_;
  // The whole hot scalar state is one contiguous region: snapshot it as a
  // flat byte copy.  Neighbour tables own heap storage, so they ride
  // separately (element-wise copies, capacity-reusing on restore).
  snap->hot_block.assign(hot_.block(), hot_.block() + hot_.block_bytes());
  snap->hot_neighbors = hot_.neighbors;
  snap->detector = detector_;
  snap->local_detector = local_detector_;
  snap->control_rng = control_rng_;
  snap->mobility_rng = mobility_rng_;
  snap->fading_rng = channel_->fading_rng();
  snap->radio = radio_.save_state();
  snap->energy = energy_;
  if (injector_ != nullptr) snap->injector = *injector_;
  if (churn_stream_ != nullptr) snap->churn_stream = *churn_stream_;
  if (fade_stream_ != nullptr) snap->fade_stream = *fade_stream_;
  snap->protocol_word = protocol_snapshot_word();

  snap->sync_slot = sync_slot_;
  snap->discovery_slot = discovery_slot_;
  snap->protocol_slot = protocol_slot_;
  snap->local_converged_slot = local_converged_slot_;
  snap->crashes = crashes_;
  snap->recoveries = recoveries_;
  snap->was_aligned = was_aligned_;
  snap->resilience_last_slot = resilience_last_slot_;
  snap->desync_start = desync_start_;
  snap->observed_slots = observed_slots_;
  snap->in_sync_slots = in_sync_slots_;
  snap->resyncs = resyncs_;
  snap->resync_sum_ms = resync_sum_ms_;
  snap->resync_max_ms = resync_max_ms_;
  snap->repair_base_set = repair_base_set_;
  snap->repair_rach2_base = repair_rach2_base_;
  snap->service_fade_episodes = service_fade_episodes_;
  snap->relabel_window = relabel_window_;
  snap->relabels_in_window = relabels_in_window_;
  snap->relabels_total = relabels_total_;
  snap->relabels_suppressed = relabels_suppressed_;
  return snap;
}

void EngineBase::restore(const EngineSnapshot& snap) {
  // Checked before anything is touched: a mismatched snapshot would
  // overrun the hot-region memcpy below.
  if (snap.devices.size() != devices_.size() ||
      snap.hot_block.size() != hot_.block_bytes()) {
    throw std::invalid_argument(
        "restore(): the snapshot's device count or hot-region size differs from "
        "this engine's; a snapshot only restores into the engine that produced it");
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
  detector_ = *snap.detector;
  local_detector_ = *snap.local_detector;
  control_rng_ = *snap.control_rng;
  mobility_rng_ = *snap.mobility_rng;
  channel_->fading_rng() = *snap.fading_rng;
  radio_.restore_state(snap.radio);
  energy_ = *snap.energy;
  if (injector_ != nullptr && snap.injector.has_value()) *injector_ = *snap.injector;
  if (snap.churn_stream.has_value()) {
    if (churn_stream_ != nullptr) {
      *churn_stream_ = *snap.churn_stream;
    } else {
      churn_stream_ = std::make_unique<fault::ChurnStream>(*snap.churn_stream);
    }
  }
  if (snap.fade_stream.has_value()) {
    if (fade_stream_ != nullptr) {
      *fade_stream_ = *snap.fade_stream;
    } else {
      fade_stream_ = std::make_unique<fault::FadeStream>(*snap.fade_stream);
    }
  }
  protocol_restore_word(snap.protocol_word);

  sync_slot_ = snap.sync_slot;
  discovery_slot_ = snap.discovery_slot;
  discovery_resume_ = 0;
  protocol_slot_ = snap.protocol_slot;
  local_converged_slot_ = snap.local_converged_slot;
  crashes_ = snap.crashes;
  recoveries_ = snap.recoveries;
  was_aligned_ = snap.was_aligned;
  resilience_last_slot_ = snap.resilience_last_slot;
  desync_start_ = snap.desync_start;
  observed_slots_ = snap.observed_slots;
  in_sync_slots_ = snap.in_sync_slots;
  resyncs_ = snap.resyncs;
  resync_sum_ms_ = snap.resync_sum_ms;
  resync_max_ms_ = snap.resync_max_ms;
  repair_base_set_ = snap.repair_base_set;
  repair_rach2_base_ = snap.repair_rach2_base;
  service_fade_episodes_ = snap.service_fade_episodes;
  relabel_window_ = snap.relabel_window;
  relabels_in_window_ = snap.relabels_in_window;
  relabels_total_ = snap.relabels_total;
  relabels_suppressed_ = snap.relabels_suppressed;
}

// ---------------------------------------------------------------------------
// Fault-stream bridge
// ---------------------------------------------------------------------------

void EngineBase::schedule_service_faults(std::int64_t to_slot) {
  if (churn_stream_ != nullptr) {
    churn_chunk_.clear();
    churn_stream_->generate_until(to_slot, churn_chunk_);
    for (const fault::ChurnEvent& e : churn_chunk_) {
      sim_.schedule_at(sim::SimTime::milliseconds(e.slot), [this, e] {
        if (e.crash) {
          crash_device(e.device);
        } else {
          recover_device(e.device);
        }
      });
    }
  }
  if (fade_stream_ != nullptr) {
    fade_chunk_.clear();
    fade_stream_->generate_until(to_slot, fade_chunk_);
    for (const fault::FadeEpisode& f : fade_chunk_) {
      ++service_fade_episodes_;
      sim_.schedule_at(sim::SimTime::milliseconds(f.start_slot), [this, f] {
        injector_->fade_started(f);
        trace(TraceKind::kFadeStart, f.u, f.u, f.v);
      });
      sim_.schedule_at(sim::SimTime::milliseconds(f.end_slot), [this, f] {
        injector_->fade_ended(f);
        trace(TraceKind::kFadeEnd, f.u, f.u, f.v);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// The service loop
// ---------------------------------------------------------------------------

namespace {
/// Counter values at a window boundary; windows report the deltas.
struct Baseline {
  std::uint64_t tx = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t fault_drops = 0;
  std::uint32_t crashes = 0;
  std::uint32_t recoveries = 0;
  std::uint32_t resyncs = 0;
  double resync_sum_ms = 0.0;
  std::int64_t observed = 0;
  std::int64_t in_sync = 0;
  std::uint64_t relabels = 0;
  std::uint64_t suppressed = 0;
};
}  // namespace

ServiceReport EngineBase::run_service(const ServiceConfig& cfg,
                                      sim::SoakRecorder* recorder) {
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

  if (!service_started_) {
    service_mode_ = true;  // start_run() must not expand the batch schedule
    service_started_ = true;
    params_.stop_on_convergence = false;  // a service never "converges and exits"
    relabel_cap_per_period_ = cfg.relabel_cap_per_period;
    // collect_metrics() clamps "never happened" marks to max_slots(); stretch
    // the cap to the soak horizon so those sentinels stay past the run.
    const auto periods =
        (cfg.duration_slots + params_.period_slots - 1) / params_.period_slots;
    params_.max_periods =
        std::max<std::uint32_t>(params_.max_periods, static_cast<std::uint32_t>(periods));
    const auto n = static_cast<std::uint32_t>(devices_.size());
    const std::uint64_t seed = rng_factory_.master_seed();
    if (params_.faults.churn_enabled()) {
      churn_stream_ = std::make_unique<fault::ChurnStream>(params_.faults, n, seed);
      churn_chunk_.reserve(64);
    }
    if (params_.faults.fade_rate_per_min > 0.0 && n >= 2) {
      fade_stream_ = std::make_unique<fault::FadeStream>(params_.faults, n, seed);
      fade_chunk_.reserve(64);
    }
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

  const auto take_baseline = [this] {
    Baseline b;
    const mac::TrafficCounters& c = radio_.counters();
    b.tx = c.total_tx();
    b.deliveries = c.deliveries;
    b.collisions = c.collisions;
    b.fault_drops = c.fault_drops;
    b.crashes = crashes_;
    b.recoveries = recoveries_;
    b.resyncs = resyncs_;
    b.resync_sum_ms = resync_sum_ms_;
    b.observed = observed_slots_;
    b.in_sync = in_sync_slots_;
    b.relabels = relabels_total_;
    b.suppressed = relabels_suppressed_;
    return b;
  };

  // Dedup pruning and snapshots key off *absolute* slot multiples (not
  // "every k-th window of this call"), so a run resumed from a snapshot
  // replays the identical side-effect sequence.
  const std::int64_t clear_span =
      cfg.dedup_clear_periods > 0
          ? static_cast<std::int64_t>(cfg.dedup_clear_periods) * params_.period_slots
          : 0;

  std::int64_t slot = current_slot();
  Baseline prev = take_baseline();
  while (slot < cfg.duration_slots) {
    const std::int64_t window_end = std::min(slot + cfg.window_slots, cfg.duration_slots);
    schedule_service_faults(window_end);
    sim_.run_until(sim::SimTime::milliseconds(window_end));
    const Baseline now = take_baseline();

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
    w.messages = now.tx - prev.tx;
    w.deliveries = now.deliveries - prev.deliveries;
    w.collisions = now.collisions - prev.collisions;
    w.fault_drops = now.fault_drops - prev.fault_drops;
    w.msg_rate_per_slot =
        static_cast<double>(w.messages) / static_cast<double>(window_end - slot);
    w.synced_once = sync_slot_ >= 0;
    const std::int64_t observed_delta = now.observed - prev.observed;
    const std::int64_t in_sync_delta = now.in_sync - prev.in_sync;
    // Resilience sampling only starts after first sync; before that the
    // fraction is pinned by definition (never synced => 0).
    w.sync_fraction =
        observed_delta > 0
            ? static_cast<double>(in_sync_delta) / static_cast<double>(observed_delta)
            : ((w.synced_once && was_aligned_) ? 1.0 : 0.0);
    w.resyncs = now.resyncs - prev.resyncs;
    w.mean_resync_ms = w.resyncs > 0
                           ? (now.resync_sum_ms - prev.resync_sum_ms) / w.resyncs
                           : 0.0;
    w.relabels = now.relabels - prev.relabels;
    w.relabels_suppressed = now.suppressed - prev.suppressed;
    const sim::Simulator::SchedulerStats stats = sim_.scheduler_stats();
    w.events_live = stats.live_events;
    w.arena_capacity = stats.arena_capacity;
    w.arena_high_water = stats.arena_high_water;
    w.events_processed = sim_.events_processed();
    fill_soak_window(w);  // protocol-specific gauges (DESYNC error etc.)
    if (recorder != nullptr) recorder->push(w);
    ++report.windows;
    prev = now;

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
  report.relabels = relabels_total_;
  report.relabels_suppressed = relabels_suppressed_;
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
