#include "fault/schedule_stream.hpp"

#include <algorithm>

namespace firefly::fault {

std::string validate_service_horizon(const FaultPlan& plan, std::int64_t duration_slots) {
  if (plan.churn_enabled() && plan.churn_stop_ms >= 0.0 &&
      plan.churn_stop_ms < static_cast<double>(duration_slots)) {
    return "churn stops at " + std::to_string(static_cast<std::int64_t>(plan.churn_stop_ms)) +
           " ms but the soak runs to slot " + std::to_string(duration_slots) +
           "; the tail would be silently fault-free — raise churn_stop_ms past the "
           "horizon or set it negative (churn for the whole run)";
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
      down_until_(device_count, -1) {}

void ChurnStream::generate_until(std::int64_t to_slot, std::vector<ChurnEvent>& out) {
  if (rate_per_slot_ > 0.0 && device_count_ > 0 && !stopped_) {
    const auto to = static_cast<double>(to_slot);
    while (true) {
      if (!have_pending_) {
        pending_t_ += rng_.exponential(rate_per_slot_);
        have_pending_ = true;
        if (stop_ms_ >= 0.0 && pending_t_ >= stop_ms_) {
          stopped_ = true;  // the process ends here
          break;
        }
      }
      if (pending_t_ >= to) break;  // beyond this chunk: keep it pending
      const auto slot = static_cast<std::int64_t>(pending_t_);
      // Per-arrival draws (device, then downtime) are consumed even for
      // absorbed arrivals, so an absorption never shifts later draws.
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
}

FadeStream::FadeStream(const FaultPlan& plan, std::uint32_t device_count,
                       std::uint64_t master_seed)
    : rate_per_slot_(plan.fade_rate_per_min / 60'000.0),
      mean_duration_ms_(std::max(1.0, plan.fade_mean_duration_ms)),
      device_count_(device_count),
      rng_(util::derive_seed(master_seed, "fault.fade")) {}

void FadeStream::generate_until(std::int64_t to_slot, std::vector<FadeEpisode>& out) {
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
      // No horizon clamp: an end slot past the run's horizon schedules a
      // fade_ended that never fires.
      out.push_back(FadeEpisode{slot, slot + duration, std::min(u, v), std::max(u, v)});
    }
  }
}

}  // namespace firefly::fault
