#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/service_mode.hpp"
#include "graph/union_find.hpp"
#include "pco/prc.hpp"
#include "util/capacity.hpp"
#include "util/stats.hpp"

namespace firefly::core {

namespace {

// The period is a range of Rng::uniform_index, which requires n > 0.  The
// coupling must meet the Mirollo–Strogatz condition (a > 0, ε > 0); at
// a = 0 the PRC's β divides by zero.  Device ids, fragment labels and
// counters travel in 16-bit wire fields where 0xFFFF is kInvalidId, so the
// population stays below it and a counter (< period) fits in 16 bits.  A
// neighbour-table entry keeps its last-heard slot in 32 bits, so the
// horizon stays within INT32_MAX slots.  Checked before the radio rebuild,
// the first O(N²) step.
ProtocolParams validated(ProtocolParams params, std::size_t device_count) {
  if (device_count >= kInvalidId) {
    throw std::invalid_argument("EngineBase: device count must be below 65535 (16-bit ids)");
  }
  if (params.period_slots == 0) throw std::invalid_argument("EngineBase: period_slots == 0");
  if (params.period_slots > 65'536) {
    throw std::invalid_argument("EngineBase: period_slots above 65536 (16-bit counters)");
  }
  if (params.max_slots() > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument(
        "EngineBase: max_periods × period_slots above INT32_MAX slots (32-bit slot stamps)");
  }
  if (!params.prc.valid_for_convergence()) {
    throw std::invalid_argument("EngineBase: PRC coupling needs dissipation_a > 0 and epsilon > 0");
  }
  return params;
}

std::uint64_t next_engine_serial() {
  static std::atomic<std::uint64_t> serial{0};
  return ++serial;
}

}  // namespace

// Out of line: engine.hpp holds a unique_ptr to EngineSnapshot, which is
// incomplete there.
EngineBase::~EngineBase() = default;

EngineBase::EngineBase(std::vector<geo::Vec2> positions, ProtocolParams params,
                       phy::RadioParams radio_params, std::uint64_t seed)
    : channel_(phy::make_paper_channel(seed, radio_params)),
      radio_(&sim_, channel_.get()),
      params_(validated(params, positions.size())),
      detector_(positions.size(), params.period_slots, params.tolerance_slots),
      local_detector_(positions.size(), params.period_slots, params.tolerance_slots),
      rng_factory_(seed),
      control_rng_(rng_factory_.make("core.control")),
      ranging_(&channel_->pathloss(), radio_params.tx_power),
      energy_(positions.size()),
      mobility_rng_(rng_factory_.make("core.mobility")),
      serial_(next_engine_serial()) {
  // Reliable links are read from the radio's candidate cache (below), which
  // holds only links within the fading margin of the threshold; a looser
  // reliable margin would silently lose links.
  if (radio_params.reliable_link_margin_db < -phy::RadioParams::kCandidateFadingMarginDb) {
    throw std::invalid_argument(
        "EngineBase: reliable_link_margin_db below -kCandidateFadingMarginDb");
  }
  radio_.set_energy_meter(&energy_);
  devices_.reserve(positions.size());
  for (std::uint32_t id = 0; id < positions.size(); ++id) {
    Device d;
    d.id = id;
    d.position = positions[id];
    d.service = static_cast<std::uint16_t>(control_rng_.uniform_index(params_.service_count));
    devices_.push_back(std::move(d));
  }
  hot_.build(devices_.size());
  for (Device& d : devices_) {
    mac::RadioMedium::ListenFn listening = nullptr;
    if (params_.duty_cycled()) {
      // Per-device offset spreads the wake windows across the population.
      const auto offset = static_cast<std::int64_t>(
          util::derive_seed(rng_factory_.master_seed(), "core.duty", d.id) %
          params_.duty_period_slots);
      listening = [this, offset] {
        const std::int64_t slot = current_slot();
        return (slot + offset) % params_.duty_period_slots < params_.duty_awake_slots;
      };
    }
    radio_.add_device(d.id, d.position, std::move(listening));
  }
  radio_.rebuild();
  // One call per slot hands the protocol every decoded reception at once;
  // deliver_batched sweeps them in the radio's dispatch order.  Engine ids
  // are dense indices (d.id == its devices_ slot), so rx_index indexes
  // devices_ and hot_ directly.
  radio_.set_delivery_sink([this](const mac::RxBatch& batch) { deliver_batched(batch); });

  if (params_.faults.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        params_.faults, static_cast<std::uint32_t>(devices_.size()), seed);
    for (std::uint32_t i = 0; i < devices_.size(); ++i) {
      hot_.drift_ppm[i] = injector_->drift_ppm(i);
    }
    // The injector answers the radio's drop and fade queries directly; a
    // faded-below-threshold reception is a fault drop, not an ordinary
    // out-of-range miss.
    if (params_.faults.channel_enabled()) radio_.set_channel_faults(injector_.get());
    // A faulted run observes behaviour *through* the faults, so it never
    // stops at the first convergence instant.
    params_.stop_on_convergence = false;
  }

  // Links the protocols owe discovery and alignment on: proximity edges
  // whose slot-averaged power clears the threshold with a margin (links
  // right at the threshold decode too rarely to owe either).  The radio's
  // candidate cache (threshold − fading margin, symmetric means) is a
  // superset of this set (the margin is checked on entry), so its memoised
  // pairs replace a second O(N²) channel sweep.
  const util::Dbm reliable =
      radio_params.detection_threshold + util::Db{radio_params.reliable_link_margin_db};
  radio_.for_each_candidate_pair([&](std::uint32_t u, std::uint32_t v, util::Dbm mean) {
    if (mean >= reliable) {
      local_detector_.add_edge(u, v);
      reliable_links_.emplace_back(u, v);
    }
  });
}

MemoryReport EngineBase::memory_report() const {
  using util::capacity_bytes;
  const mac::RadioMedium::MemoryUse radio = radio_.memory_use();
  std::size_t tables = capacity_bytes(hot_.neighbors);
  for (const NeighborTable& table : hot_.neighbors) tables += table.capacity_bytes();
  std::size_t dedup = 0;
  std::size_t tree = 0;
  for (const Device& d : devices_) {
    dedup += d.announces_seen.capacity_bytes() + d.sync_floods_seen.capacity_bytes();
    tree += capacity_bytes(d.tree_neighbors);
  }
  MemoryReport report;
  report.entries = {
      {"candidate_cache", radio.candidate_cache},
      {"staging_chunks", radio.staging_chunks},
      {"order", radio.order},
      {"rx_entries", radio.rx_entries},
      {"radio_other", radio.other},
      {"neighbor_tables", tables},
      {"dedup_sets", dedup},
      {"tree_lists", tree},
      {"calendar_arena", sim_.scheduler_stats().arena_bytes},
      {"hot_region", hot_.block_capacity()},
      {"reliable_links", capacity_bytes(reliable_links_) + local_detector_.edge_bytes()},
      {"device_records", capacity_bytes(devices_)},
  };
  return report;
}

void EngineBase::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  fires_counter_ = telemetry != nullptr ? &telemetry->counter("engine.fires") : nullptr;
  radio_.set_telemetry(telemetry);
}

void EngineBase::schedule_fire(std::uint32_t i) {
  if (hot_.down[i]) return;
  if (hot_.fire_event[i] != 0) sim_.cancel(hot_.fire_event[i]);
  hot_.fire_event[i] = sim_.schedule_at(std::max(hot_.next_fire_slot[i], sim_.now()), [this, i] {
    hot_.fire_event[i] = 0;
    fire(i);
  });
}

void EngineBase::fire(std::uint32_t i, std::uint32_t post_counter) {
  if (hot_.down[i]) return;
  const std::int64_t slot = current_slot();
  hot_.last_fire_slot[i] = slot;
  hot_.refractory_until_slot[i] = slot + params_.refractory_slots;
  // A reachback-aligned absorption restarts the counter at the absorber's
  // clock offset so the next cycle fires simultaneously with it.
  hot_.next_fire_slot[i] =
      slot + params_.period_slots - static_cast<std::int64_t>(post_counter);
  if (hot_.drift_ppm[i] != 0.0) {
    // Clock drift: a fast crystal (+ppm) completes its cycle early.  The
    // sub-slot skew accumulates in a residual and is applied one whole slot
    // at a time, so the drift the PRC must fight is exact over any horizon.
    hot_.drift_residual[i] +=
        static_cast<double>(params_.period_slots) * hot_.drift_ppm[i] * 1e-6;
    const double whole = std::floor(hot_.drift_residual[i]);
    if (whole != 0.0) {
      hot_.next_fire_slot[i] -= static_cast<std::int64_t>(whole);
      hot_.drift_residual[i] -= whole;
    }
  }
  emit_fire_broadcast(devices_[i]);
  detector_.record_fire(i, slot);
  local_detector_.record_fire(i, slot);
  if (fires_counter_ != nullptr) fires_counter_->inc();
  trace(TraceKind::kFire, i, post_counter);
  schedule_fire(i);
}

std::uint32_t EngineBase::elapsed_slots(const mac::RxRecord& record) const {
  const std::int64_t elapsed = current_slot() - record.sent_slot;
  return elapsed > 0 ? static_cast<std::uint32_t>(elapsed) : 0;
}

std::uint16_t EngineBase::counter_field(std::uint32_t i) const {
  return static_cast<std::uint16_t>(counter_at(i, current_slot()) % params_.period_slots);
}

void EngineBase::apply_pulse_coupling(const mac::RxRecord& record) {
  const obs::ScopedTimer span(telemetry_, obs::SpanId::kPcoUpdate,
                              telemetry_ != nullptr ? static_cast<double>(sim_.now()) : -1.0);
  const std::uint32_t i = record.rx_index;
  const std::int64_t slot = current_slot();
  if (refractory_at(i, slot)) return;
  // Delay compensation: the pulse was transmitted `elapsed` slots ago, so
  // the PRC applies to the phase the receiver had at transmission time.
  const std::uint32_t elapsed = elapsed_slots(record);
  const std::uint32_t counter = counter_at(i, slot);
  const std::uint32_t counter_then = counter > elapsed ? counter - elapsed : 0;
  const double theta =
      static_cast<double>(counter_then) / static_cast<double>(params_.period_slots);
  const double jumped = pco::apply_prc(std::min(theta, 1.0), params_.prc);
  const auto new_counter = std::max(
      counter, static_cast<std::uint32_t>(
                   std::ceil(jumped * static_cast<double>(params_.period_slots))) + elapsed);
  if (new_counter >= params_.period_slots) {
    // Absorption: fire in this very slot, and restart the counter aligned
    // to the absorbing sender's clock (reachback compensation — without it
    // a slotted radio accumulates one slot of skew per hop and global
    // alignment is unreachable for any pulse-coupled scheme).
    if (hot_.fire_event[i] != 0) {
      sim_.cancel(hot_.fire_event[i]);
      hot_.fire_event[i] = 0;
    }
    const Fields f = unpack(record.payload);
    const std::uint32_t aligned = (f.c + elapsed) % params_.period_slots;
    fire(i, aligned);
    return;
  }
  hot_.next_fire_slot[i] = slot + (params_.period_slots - new_counter);
  schedule_fire(i);
}

void EngineBase::adopt_counter(std::uint32_t i, std::uint32_t counter) {
  if (hot_.down[i]) return;
  const std::int64_t slot = current_slot();
  if (counter >= params_.period_slots) counter %= params_.period_slots;
  hot_.next_fire_slot[i] = slot + (params_.period_slots - counter);
  trace(TraceKind::kAdopt, i, counter);
  schedule_fire(i);
}

const NeighborInfo& EngineBase::update_neighbor(const mac::RxRecord& record) {
  NeighborInfo& info = hot_.neighbors[record.rx_index][record.sender];
  const double rx = record.rx_power.value;
  if (info.last_heard_slot < 0) {  // first PS from this sender
    info.weight_dbm = rx;
  } else {
    info.weight_dbm += params_.weight_ewma * (rx - info.weight_dbm);
  }
  // In range: validated() caps every horizon at INT32_MAX slots.
  info.last_heard_slot = static_cast<std::int32_t>(current_slot());
  // Sync pulses and discovery beacons carry (fragment, service); control
  // messages carry other fields, so only refresh from beacons.
  if (record.type == mac::PsType::kSyncPulse || record.type == mac::PsType::kDiscovery) {
    const Fields f = unpack(record.payload);
    info.fragment = f.a;
    info.service = f.b;
  }
  return info;
}

mac::Preamble EngineBase::random_preamble(mac::RachCodec codec) {
  return mac::Preamble{
      codec, static_cast<std::uint32_t>(control_rng_.uniform_index(mac::kPreamblePoolSize))};
}

bool EngineBase::discovery_complete() {
  for (; discovery_resume_ < reliable_links_.size(); ++discovery_resume_) {
    const auto [u, v] = reliable_links_[discovery_resume_];
    // A link with a crashed endpoint is waived: the survivor cannot be
    // expected to (re)discover a silent radio.
    if (hot_.down[u] || hot_.down[v]) continue;
    if (!hot_.neighbors[u].contains(v)) return false;
    if (!hot_.neighbors[v].contains(u)) return false;
  }
  return true;
}

void EngineBase::start_mobility() {
  // Deployment area inferred as the bounding box of the initial positions
  // (the engines take raw positions, not a scenario).
  double max_x = 1.0, max_y = 1.0;
  for (const Device& d : devices_) {
    max_x = std::max(max_x, d.position.x);
    max_y = std::max(max_y, d.position.y);
  }
  mobility_area_ = geo::Area{max_x, max_y};
  movers_.reserve(devices_.size());
  for (const Device& d : devices_) {
    movers_.emplace_back(d.position, mobility_area_, params_.mobility_speed_mps,
                         params_.mobility_pause_s, &mobility_rng_);
  }
  sim_.schedule_periodic(params_.mobility_update_slots, params_.mobility_update_slots,
                         [this] { mobility_step(); });
}

void EngineBase::mobility_step() {
  const double dt_s = static_cast<double>(params_.mobility_update_slots) * 1e-3;
  for (Device& d : devices_) {
    d.position = movers_[d.id].advance(dt_s);
    radio_.move_device(d.id, d.position);
  }
  // Large-scale state changed: link shadowing decorrelates and the
  // memoised means are stale.  Cell membership already tracked the moves
  // incrementally inside move_device; rebuild() re-enumerates candidates
  // from the maintained grid.
  channel_->shadowing().invalidate();
  radio_.rebuild();
}

void EngineBase::check_convergence() {
  const std::int64_t slot = current_slot();
  if (state_.local_converged_slot < 0) {
    const auto local = local_detector_.converged_at(slot);
    if (local.has_value()) state_.local_converged_slot = *local;
  }
  if (state_.discovery_slot < 0 && discovery_complete()) {
    state_.discovery_slot = slot;
    trace(TraceKind::kDiscovery, 0, static_cast<std::uint32_t>(slot));
  }
  if (state_.protocol_slot < 0 && protocol_complete()) state_.protocol_slot = slot;
  if (state_.sync_slot < 0) {
    const auto converged = detector_.converged_at(slot);
    if (converged.has_value()) {
      state_.sync_slot = *converged;
      trace(TraceKind::kSync, 0, static_cast<std::uint32_t>(*converged));
    }
  }
  if (state_.sync_slot >= 0) sample_resilience(slot);
  const bool sync_ok = !requires_sync() || state_.sync_slot >= 0;
  if (sync_ok && state_.discovery_slot >= 0 && state_.protocol_slot >= 0) {
    if (!state_.repair_base_set) {
      // Everything RACH2 spends from here on is repair traffic, not
      // first-formation traffic.
      state_.repair_base_set = true;
      state_.repair_rach2_base = radio_.counters().rach2_tx;
    }
    if (params_.stop_on_convergence) sim_.stop();
  }
}

void EngineBase::sample_resilience(std::int64_t slot) {
  const bool aligned = detector_.aligned_now();
  if (state_.resilience_last_slot >= 0) {
    const std::int64_t dt = slot - state_.resilience_last_slot;
    if (dt > 0) {
      state_.observed_slots += dt;
      if (state_.was_aligned) state_.in_sync_slots += dt;
    }
    if (state_.was_aligned && !aligned) {
      state_.desync_start = slot;
    } else if (!state_.was_aligned && aligned && state_.desync_start >= 0) {
      const auto duration_ms = static_cast<double>(slot - state_.desync_start);
      ++state_.resyncs;
      state_.resync_sum_ms += duration_ms;
      state_.resync_max_ms = std::max(state_.resync_max_ms, duration_ms);
      state_.desync_start = -1;
    }
  }
  state_.was_aligned = aligned;
  state_.resilience_last_slot = slot;
}

RunMetrics EngineBase::run() {
  start_run();
  sim_.run_until(params_.max_slots());
  return collect_metrics();
}

void EngineBase::start_run() {
  // Random initial phases (paper: devices start unsynchronised).
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    hot_.next_fire_slot[i] = static_cast<std::int64_t>(
        control_rng_.uniform_index(params_.period_slots)) + 1;
    schedule_fire(i);
  }
  sim_.schedule_periodic(params_.check_interval_slots, params_.check_interval_slots,
                         [this] { check_convergence(); });
  if (params_.mobility_speed_mps > 0.0) start_mobility();
  on_start();
  // A one-shot trial pulls its whole fault schedule now; a service run pulls
  // it one telemetry window at a time (run_service).
  if (!service_) schedule_faults_until(params_.max_slots());
}

void EngineBase::schedule_faults_until(std::int64_t to_slot) {
  if (injector_ == nullptr) return;
  churn_chunk_.clear();
  fade_chunk_.clear();
  injector_->generate_until(to_slot, churn_chunk_, fade_chunk_);
  for (const fault::ChurnEvent& e : churn_chunk_) {
    sim_.schedule_at(e.slot, [this, e] {
      if (e.crash) {
        crash_device(e.device);
      } else {
        recover_device(e.device);
      }
    });
  }
  for (const fault::FadeEpisode& f : fade_chunk_) {
    ++state_.fade_episodes;
    sim_.schedule_at(f.start_slot, [this, f] {
      injector_->fade_started(f);
      trace(TraceKind::kFadeStart, f.u, f.u, f.v);
    });
    sim_.schedule_at(f.end_slot, [this, f] {
      injector_->fade_ended(f);
      trace(TraceKind::kFadeEnd, f.u, f.u, f.v);
    });
  }
}

void EngineBase::crash_device(std::uint32_t id) {
  if (hot_.down[id]) return;
  hot_.down[id] = true;
  if (hot_.fire_event[id] != 0) {
    sim_.cancel(hot_.fire_event[id]);
    hot_.fire_event[id] = 0;
  }
  radio_.set_down(id, true);
  detector_.set_active(id, false);
  local_detector_.set_active(id, false);
  discovery_resume_ = 0;
  ++state_.crashes;
  trace(TraceKind::kCrash, id);
}

void EngineBase::recover_device(std::uint32_t id) {
  if (!hot_.down[id]) return;
  hot_.down[id] = false;
  radio_.set_down(id, false);
  detector_.set_active(id, true);
  local_detector_.set_active(id, true);
  // Cold boot: volatile state is gone.  The crystal (and its drift) is the
  // same physical part, so drift_ppm survives.
  hot_.neighbors[id].clear();
  discovery_resume_ = 0;
  hot_.last_fire_slot[id] = -1;
  hot_.refractory_until_slot[id] = -1;
  hot_.drift_residual[id] = 0.0;
  hot_.next_fire_slot[id] = current_slot() + 1 +
                           static_cast<std::int64_t>(
                               control_rng_.uniform_index(params_.period_slots));
  schedule_fire(id);
  on_recover(devices_[id]);
  ++state_.recoveries;
  trace(TraceKind::kRecover, id);
}

bool EngineBase::relabel_permitted() {
  const std::int64_t window = current_slot() / params_.period_slots;
  if (window != state_.relabel_window) {
    state_.relabel_window = window;
    state_.relabels_in_window = 0;
  }
  if (relabel_cap_per_period_ != 0 && state_.relabels_in_window >= relabel_cap_per_period_) {
    ++state_.relabels_suppressed;
    return false;
  }
  ++state_.relabels_in_window;
  ++state_.relabels_total;
  return true;
}

RunMetrics EngineBase::collect_metrics() {
  RunMetrics metrics;
  const RunState& s = state_;
  const auto unset = static_cast<double>(params_.max_slots());
  const bool sync_ok = !requires_sync() || s.sync_slot >= 0;
  metrics.converged = sync_ok && s.discovery_slot >= 0 && s.protocol_slot >= 0;
  metrics.convergence_ms =
      metrics.converged
          ? static_cast<double>(std::max(
                std::max(requires_sync() ? s.sync_slot : 0, s.discovery_slot), s.protocol_slot))
          : unset;
  metrics.sync_ms = s.sync_slot >= 0 ? static_cast<double>(s.sync_slot) : unset;
  metrics.discovery_ms = s.discovery_slot >= 0 ? static_cast<double>(s.discovery_slot) : unset;
  metrics.locally_converged = s.local_converged_slot >= 0;
  metrics.local_sync_ms =
      metrics.locally_converged ? static_cast<double>(s.local_converged_slot) : unset;
  finalize_metrics(metrics);
  fill_protocol_metrics(metrics);
  return metrics;
}

void EngineBase::finalize_metrics(RunMetrics& metrics) const {
  const mac::TrafficCounters& traffic = radio_.counters();
  metrics.rach1_messages = traffic.rach1_tx;
  metrics.rach2_messages = traffic.rach2_tx;
  metrics.collisions = traffic.collisions;
  metrics.deliveries = traffic.deliveries;
  metrics.events_processed = sim_.events_processed();
  metrics.simulated_ms = static_cast<double>(sim_.now());

  // Resilience observables (all zero on fault-free runs).
  metrics.crashes = state_.crashes;
  metrics.recoveries = state_.recoveries;
  metrics.fade_episodes = state_.fade_episodes;
  metrics.fault_drops = traffic.fault_drops;
  metrics.resyncs = state_.resyncs;
  metrics.mean_resync_ms = state_.resyncs > 0 ? state_.resync_sum_ms / state_.resyncs : 0.0;
  metrics.max_resync_ms = state_.resync_max_ms;
  metrics.sync_uptime =
      state_.observed_slots > 0
          ? static_cast<double>(state_.in_sync_slots) / static_cast<double>(state_.observed_slots)
          : (state_.sync_slot >= 0 ? 1.0 : 0.0);
  metrics.in_sync_at_end = state_.sync_slot >= 0 && state_.was_aligned;
  metrics.repair_messages =
      state_.repair_base_set ? traffic.rach2_tx - state_.repair_rach2_base : 0;
  std::uint32_t alive = 0;
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    if (!hot_.down[i]) ++alive;
  }
  metrics.alive_at_end = alive;
  // Partition diagnosis: connect the reliable links whose endpoints are both
  // alive; if more than one component of live devices remains, no protocol
  // can merge them into a single synchronised fragment.
  graph::UnionFind components(devices_.size());
  for (const auto& [u, v] : reliable_links_) {
    if (!hot_.down[u] && !hot_.down[v]) components.unite(u, v);
  }
  std::int64_t root = -1;
  bool split = false;
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    if (hot_.down[i]) continue;
    const std::uint32_t r = components.find(i);
    if (root < 0) {
      root = r;
    } else if (r != static_cast<std::uint32_t>(root)) {
      split = true;
      break;
    }
  }
  metrics.partitioned = split || alive == 0;

  util::RunningStats neighbor_counts;
  util::RunningStats service_peers;
  // At most one ranging error per neighbour entry (co-located pairs are
  // skipped).  The selector sums them in table order for the mean and keeps
  // only the ≈ 10 % that can still reach the p90 ranks, in one buffer sized
  // once: this pass runs at the end of the trial, on top of everything the
  // run still holds, so a sample of every error (N = 2000: 4.7 MiB) would
  // set a large trial's peak.
  std::size_t entries = 0;
  for (std::uint32_t i = 0; i < devices_.size(); ++i) entries += hot_.neighbors[i].size();
  util::TopKPercentile rel_errors(90.0, entries);
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    const Device& d = devices_[i];
    const NeighborTable& table = hot_.neighbors[i];
    neighbor_counts.add(static_cast<double>(table.size()));
    std::size_t peers = 0;
    for (const auto& [other_id, info] : table) {
      if (info.service == d.service) ++peers;
      const double true_dist =
          geo::distance(d.position, devices_[other_id].position);
      if (true_dist > 0.0) {
        // RSSI ranging estimate, derived from the EWMA weight on demand
        // (inverting the path-loss model per delivery was pure waste: the
        // estimate is only ever read here and by post-run reports).
        const double est = ranging_.estimate_distance(util::Dbm{info.weight_dbm});
        rel_errors.add(std::fabs(est / true_dist - 1.0));
      }
    }
    service_peers.add(static_cast<double>(peers));
  }
  metrics.mean_neighbors_discovered = neighbor_counts.mean();
  metrics.mean_service_peers = service_peers.mean();
  metrics.ranging_mean_abs_rel_error = rel_errors.mean();
  metrics.ranging_p90_rel_error = rel_errors.percentile();

  const double awake = params_.awake_fraction();
  metrics.total_energy_mj = energy_.total_energy_mj(sim_.now(), awake);
  metrics.mean_device_energy_mj = energy_.mean_energy_mj(sim_.now(), awake);
  metrics.energy_per_neighbor_mj =
      metrics.mean_neighbors_discovered > 0.0
          ? metrics.mean_device_energy_mj / metrics.mean_neighbors_discovered
          : 0.0;
}

}  // namespace firefly::core
