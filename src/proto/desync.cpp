#include "proto/desync.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/soak.hpp"

namespace firefly::proto {

using core::Fields;
using core::pack;

void DesyncEngine::on_start() {
  // Nothing beyond the base: oscillators free-run from random phases; the
  // first full cycle seeds every node's phase-neighbour memory and the
  // midpoint jumps start from the second firing on.
}

void DesyncEngine::emit_fire_broadcast(Device& device) {
  // A new firing opens a new measurement cycle: the latest pulse heard
  // before this instant becomes the "previous" phase neighbour, and the
  // first pulse heard from now on will be the "next" one.
  const std::uint32_t i = device.id;
  hot_.desync_prev_slot[i] = hot_.desync_last_heard_slot[i];
  hot_.desync_adjusted[i] = false;
  radio_.broadcast(device.id,
                   random_preamble(mac::RachCodec::kRach1),
                   mac::PsType::kSyncPulse,
                   pack(Fields{hot_.fragment[i], device.service, counter_field(i), 0}));
}

void DesyncEngine::deliver_batched(const mac::RxBatch& batch) {
  sweep_batch(batch, [this](const mac::RxRecord& r) {
    if (r.type != mac::PsType::kSyncPulse) return;
    const std::uint32_t i = r.rx_index;
    const std::int64_t sent =
        current_slot() - static_cast<std::int64_t>(elapsed_slots(r));
    hot_.desync_last_heard_slot[i] = sent;
    if (hot_.last_fire_slot[i] < 0) return;      // not fired yet: no cycle open
    if (sent <= hot_.last_fire_slot[i]) return;  // pre-fire pulse: "previous" side
    if (!hot_.desync_adjusted[i]) midpoint_jump(i, sent);
  });
}

void DesyncEngine::midpoint_jump(std::uint32_t i, std::int64_t next_pulse_slot) {
  // One jump per own firing, triggered by the first post-fire pulse — the
  // discrete DESYNC step.  Mark the cycle spent even when the measurement
  // is unusable, so a stale late pulse cannot trigger it instead.
  hot_.desync_adjusted[i] = true;
  const auto period = static_cast<std::int64_t>(params_.period_slots);
  if (hot_.desync_prev_slot[i] < 0) return;  // no "previous" neighbour yet
  const std::int64_t prev_gap = hot_.last_fire_slot[i] - hot_.desync_prev_slot[i];
  const std::int64_t next_gap = next_pulse_slot - hot_.last_fire_slot[i];
  // Gaps outside (0, T) mean the memory is stale (silence for over a
  // period: crashed neighbours, deep fades) — skip, keep the cycle open
  // for fresh measurements next firing.
  if (prev_gap <= 0 || prev_gap >= period) return;
  if (next_gap <= 0 || next_gap >= period) return;
  const std::int64_t raw = next_gap - prev_gap;  // >0: fire later, <0: earlier
  // Dithered rounding of α·raw/2 to the slot grid: truncate, then add the
  // fractional part back in expectation via a Bernoulli draw from the
  // deterministic control RNG (arXiv:1210.2122's escape from the limit
  // cycles that plain truncation locks into).
  const double target = params_.desync_alpha * static_cast<double>(raw) / 2.0;
  const double whole = std::floor(target);
  const std::int64_t jump = static_cast<std::int64_t>(whole) +
                            (control_rng_.bernoulli(target - whole) ? 1 : 0);
  if (jump != 0) {
    const std::int64_t slot = current_slot();
    hot_.next_fire_slot[i] = std::max(slot + 1, hot_.next_fire_slot[i] + jump);
    schedule_fire(i);
  }
  // Residual imbalance after the jump: moving the firing by `jump` shrinks
  // next_gap and grows prev_gap by the same amount next cycle.
  hot_.desync_residual[i] = static_cast<std::int32_t>(std::llabs(raw - 2 * jump));
}

double DesyncEngine::mean_error_slots() const {
  double sum = 0.0;
  std::uint32_t measured = 0;
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    if (hot_.down[i] || hot_.desync_residual[i] < 0) continue;
    sum += static_cast<double>(hot_.desync_residual[i]);
    ++measured;
  }
  return measured > 0 ? sum / static_cast<double>(measured) : 0.0;
}

double DesyncEngine::spread_slots() const {
  const auto period = static_cast<std::int64_t>(params_.period_slots);
  std::vector<std::int64_t> phases;
  phases.reserve(devices_.size());
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    if (!hot_.down[i]) phases.push_back(((hot_.next_fire_slot[i] % period) + period) % period);
  }
  if (phases.size() < 2) return 0.0;
  std::sort(phases.begin(), phases.end());
  std::int64_t min_gap = period;
  std::int64_t max_gap = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const std::int64_t next =
        i + 1 < phases.size() ? phases[i + 1] : phases[0] + period;
    const std::int64_t gap = next - phases[i];
    min_gap = std::min(min_gap, gap);
    max_gap = std::max(max_gap, gap);
  }
  return static_cast<double>(max_gap - min_gap);
}

bool DesyncEngine::protocol_complete() const {
  // The per-check evaluator: check_convergence calls this exactly once per
  // check interval until the protocol goal latches.  Surface the current
  // error through the metric registry on every evaluation.
  if (telemetry_ != nullptr) {
    telemetry_->set_gauge("proto.desync.error", mean_error_slots());
  }
  const auto tolerance = static_cast<std::int32_t>(params_.desync_tolerance_slots);
  std::uint32_t measured = 0;
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    if (hot_.down[i]) continue;
    if (hot_.desync_last_heard_slot[i] < 0) continue;  // hears nobody: nothing to balance
    if (hot_.desync_residual[i] < 0 || hot_.desync_residual[i] > tolerance) {
      stable_checks_ = 0;
      return false;
    }
    ++measured;
  }
  if (measured == 0) {
    // Nobody has completed a measurement cycle yet (or the network is all
    // isolated singletons) — that is not a desynchronised schedule.
    stable_checks_ = 0;
    return false;
  }
  ++stable_checks_;
  return stable_checks_ >= params_.desync_sustain_checks;
}

void DesyncEngine::fill_protocol_metrics(RunMetrics& metrics) const {
  metrics.desync_error = mean_error_slots();
  metrics.desync_spread_slots = spread_slots();
}

void DesyncEngine::fill_soak_window(sim::SoakWindow& window) const {
  window.desync_error = mean_error_slots();
}

void DesyncEngine::on_recover(Device& device) {
  // Cold boot: whatever the radio had learned about its phase neighbours
  // died with it.
  const std::uint32_t i = device.id;
  hot_.desync_last_heard_slot[i] = -1;
  hot_.desync_prev_slot[i] = -1;
  hot_.desync_residual[i] = -1;
  hot_.desync_adjusted[i] = false;
}

}  // namespace firefly::proto
