#include "fault/schedule_stream.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace firefly::fault {

std::string validate_service_horizon(const FaultPlan& plan, std::int64_t duration_slots) {
  if (!plan.churn_enabled()) return {};
  if (plan.churn_rate_per_min > 0.0) {
    if (plan.churn_stop_ms >= 0.0 &&
        plan.churn_stop_ms < static_cast<double>(duration_slots)) {
      return "churn stops at " + std::to_string(static_cast<std::int64_t>(plan.churn_stop_ms)) +
             " ms but the soak runs to slot " + std::to_string(duration_slots) +
             "; the tail would be silently fault-free — raise churn_stop_ms past the "
             "horizon or set it negative (churn for the whole run)";
    }
    return {};
  }
  // Scheduled-only churn: the scripted list must reach the horizon.
  std::int64_t last = -1;
  for (const ChurnEvent& e : plan.scheduled) last = std::max(last, e.slot);
  if (last + 1 < duration_slots) {
    return "scheduled churn ends at slot " + std::to_string(last) +
           " but the soak runs to slot " + std::to_string(duration_slots) +
           "; the tail would be silently fault-free — add churn_rate_per_min, extend "
           "the scheduled events, or shorten the soak";
  }
  return {};
}

ChurnStream::ChurnStream(const FaultPlan& plan, std::uint32_t device_count,
                         std::uint64_t master_seed)
    : rate_per_slot_(plan.churn_rate_per_min / 60'000.0),
      stop_ms_(plan.churn_stop_ms),
      mean_downtime_ms_(std::max(1.0, plan.mean_downtime_ms)),
      device_count_(device_count),
      rng_(util::derive_seed(master_seed, "fault.churn")),
      down_until_(device_count, -1),
      scheduled_(plan.scheduled) {
  std::stable_sort(scheduled_.begin(), scheduled_.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) { return a.slot < b.slot; });
}

void ChurnStream::generate_until(std::int64_t to_slot, std::vector<ChurnEvent>& out) {
  assert(to_slot >= generated_to_);
  // Scheduled events are merged at their slot, *between* random arrivals, so
  // the interleaving (and hence the caller's schedule order for same-slot
  // events) does not depend on where the chunk boundary falls.
  const auto emit_scheduled_upto = [&](double t_limit) {
    while (scheduled_cursor_ < scheduled_.size() &&
           scheduled_[scheduled_cursor_].slot < to_slot &&
           static_cast<double>(scheduled_[scheduled_cursor_].slot) <= t_limit) {
      const ChurnEvent& e = scheduled_[scheduled_cursor_++];
      if (e.device < device_count_) out.push_back(e);
    }
  };

  if (rate_per_slot_ > 0.0 && device_count_ > 0 && !stopped_) {
    const auto to = static_cast<double>(to_slot);
    while (true) {
      if (!have_pending_) {
        pending_t_ += rng_.exponential(rate_per_slot_);
        have_pending_ = true;
        if (stop_ms_ >= 0.0 && pending_t_ >= stop_ms_) {
          stopped_ = true;  // mirror expand_schedule: the process ends here
          break;
        }
      }
      if (pending_t_ >= to) break;  // beyond this chunk: keep it pending
      emit_scheduled_upto(pending_t_);
      const auto slot = static_cast<std::int64_t>(pending_t_);
      // Per-arrival draw order (device, then downtime) matches the batch
      // injector so the two processes stay recognisably related; the draws
      // are consumed even for absorbed arrivals, exactly like the batch.
      const auto device = static_cast<std::uint32_t>(rng_.uniform_index(device_count_));
      const auto downtime = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(rng_.exponential(1.0 / mean_downtime_ms_)));
      have_pending_ = false;
      if (down_until_[device] < slot) {
        down_until_[device] = slot + downtime;
        out.push_back(ChurnEvent{slot, device, true});
        out.push_back(ChurnEvent{slot + downtime, device, false});
      }
    }
  }
  emit_scheduled_upto(std::numeric_limits<double>::infinity());
  generated_to_ = to_slot;
}

FadeStream::FadeStream(const FaultPlan& plan, std::uint32_t device_count,
                       std::uint64_t master_seed)
    : rate_per_slot_(plan.fade_rate_per_min / 60'000.0),
      mean_duration_ms_(std::max(1.0, plan.fade_mean_duration_ms)),
      device_count_(device_count),
      rng_(util::derive_seed(master_seed, "fault.fade")) {}

void FadeStream::generate_until(std::int64_t to_slot, std::vector<FadeEpisode>& out) {
  assert(to_slot >= generated_to_);
  if (rate_per_slot_ > 0.0 && device_count_ >= 2) {
    const auto to = static_cast<double>(to_slot);
    while (true) {
      if (!have_pending_) {
        pending_t_ += rng_.exponential(rate_per_slot_);
        have_pending_ = true;
      }
      if (pending_t_ >= to) break;
      const auto slot = static_cast<std::int64_t>(pending_t_);
      const auto u = static_cast<std::uint32_t>(rng_.uniform_index(device_count_));
      auto v = static_cast<std::uint32_t>(rng_.uniform_index(device_count_ - 1));
      if (v >= u) ++v;
      const auto duration = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(rng_.exponential(1.0 / mean_duration_ms_)));
      have_pending_ = false;
      // No horizon clamp: the service loop has no horizon.  An end slot past
      // the soak's duration simply schedules a fade_ended that never fires.
      out.push_back(FadeEpisode{slot, slot + duration, std::min(u, v), std::max(u, v)});
    }
  }
  generated_to_ = to_slot;
}

}  // namespace firefly::fault
