#include "pco/sync_metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace firefly::pco {

double circular_spread(std::span<const double> phases) {
  if (phases.size() <= 1) return 0.0;
  std::vector<double> sorted(phases.begin(), phases.end());
  for (double& p : sorted) p = p - std::floor(p);  // into [0, 1)
  std::sort(sorted.begin(), sorted.end());
  // The smallest covering arc is 1 minus the largest gap between
  // consecutive (circularly adjacent) phases.
  double max_gap = 1.0 - sorted.back() + sorted.front();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    max_gap = std::max(max_gap, sorted[i] - sorted[i - 1]);
  }
  return 1.0 - max_gap;
}

ConvergenceDetector::ConvergenceDetector(std::size_t n, std::uint32_t period_slots,
                                         std::uint32_t tolerance_slots)
    : period_slots_(period_slots),
      tolerance_slots_(tolerance_slots),
      last_fire_(n, -1),
      active_(n, 1),
      active_count_(n) {
  assert(period_slots_ > 0);
}

void ConvergenceDetector::record_fire(std::uint32_t id, std::int64_t slot) {
  assert(id < last_fire_.size());
  if (active_[id] == 0) return;
  if (last_fire_[id] < 0) ++fired_count_;
  last_fire_[id] = slot;
}

void ConvergenceDetector::set_active(std::uint32_t id, bool active) {
  assert(id < active_.size());
  if ((active_[id] != 0) == active) return;
  active_[id] = active ? 1 : 0;
  if (active) {
    ++active_count_;
    last_fire_[id] = -1;  // must fire again after the cold boot
  } else {
    --active_count_;
    if (last_fire_[id] >= 0) --fired_count_;
    last_fire_[id] = -1;
  }
}

std::int64_t ConvergenceDetector::spread_slots() const {
  if (active_count_ == 0 || fired_count_ < active_count_) return period_slots_;
  if (active_count_ == 1) return 0;
  // Smallest covering arc of the firing slots modulo the period, computed
  // exactly in integer slots.
  std::vector<std::int64_t> mods;
  mods.reserve(active_count_);
  const auto period = static_cast<std::int64_t>(period_slots_);
  for (std::size_t id = 0; id < last_fire_.size(); ++id) {
    if (active_[id] != 0) mods.push_back(last_fire_[id] % period);
  }
  std::sort(mods.begin(), mods.end());
  std::int64_t max_gap = mods.front() + period - mods.back();
  for (std::size_t i = 1; i < mods.size(); ++i) {
    max_gap = std::max(max_gap, mods[i] - mods[i - 1]);
  }
  return period - max_gap;
}

bool ConvergenceDetector::aligned_now() const {
  return active_count_ > 0 && fired_count_ == active_count_ &&
         spread_slots() <= static_cast<std::int64_t>(tolerance_slots_);
}

std::optional<std::int64_t> ConvergenceDetector::converged_at(std::int64_t current_slot) {
  const bool aligned = aligned_now();
  if (!aligned) {
    aligned_since_.reset();
    return std::nullopt;
  }
  if (!aligned_since_.has_value()) aligned_since_ = current_slot;
  if (current_slot - *aligned_since_ >= static_cast<std::int64_t>(period_slots_)) {
    return aligned_since_;
  }
  return std::nullopt;
}

LocalSyncDetector::LocalSyncDetector(std::size_t n, std::uint32_t period_slots,
                                     std::uint32_t tolerance_slots)
    : period_slots_(period_slots),
      tolerance_slots_(tolerance_slots),
      last_fire_(n, -1),
      active_(n, 1),
      active_count_(n) {
  assert(period_slots_ > 0);
}

void LocalSyncDetector::record_fire(std::uint32_t id, std::int64_t slot) {
  assert(id < last_fire_.size());
  if (active_[id] == 0) return;
  if (last_fire_[id] < 0) ++fired_count_;
  last_fire_[id] = slot;
}

void LocalSyncDetector::set_active(std::uint32_t id, bool active) {
  assert(id < active_.size());
  if ((active_[id] != 0) == active) return;
  active_[id] = active ? 1 : 0;
  if (active) {
    ++active_count_;
  } else {
    --active_count_;
    if (last_fire_[id] >= 0) --fired_count_;
  }
  last_fire_[id] = -1;
}

bool LocalSyncDetector::edge_aligned(std::uint32_t u, std::uint32_t v) const {
  if (active_[u] == 0 || active_[v] == 0) return true;  // waived while down
  if (last_fire_[u] < 0 || last_fire_[v] < 0) return false;
  const auto period = static_cast<std::int64_t>(period_slots_);
  std::int64_t diff = (last_fire_[u] - last_fire_[v]) % period;
  if (diff < 0) diff += period;
  const std::int64_t circular = std::min(diff, period - diff);
  return circular <= static_cast<std::int64_t>(tolerance_slots_);
}

std::optional<std::int64_t> LocalSyncDetector::converged_at(std::int64_t current_slot,
                                                             std::span<const Edge> edges) {
  bool aligned = active_count_ > 0 && fired_count_ == active_count_;
  if (aligned) {
    for (const auto& [u, v] : edges) {
      if (!edge_aligned(u, v)) {
        aligned = false;
        break;
      }
    }
  }
  if (!aligned) {
    aligned_since_.reset();
    return std::nullopt;
  }
  if (!aligned_since_.has_value()) aligned_since_ = current_slot;
  if (current_slot - *aligned_since_ >= static_cast<std::int64_t>(period_slots_)) {
    return aligned_since_;
  }
  return std::nullopt;
}

}  // namespace firefly::pco
