#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace firefly::fault {

namespace {

/// Poisson arrival slots over [0, horizon) at `rate_per_min` events/min.
/// 1 slot = 1 ms, so the per-slot rate is rate / 60000.
std::vector<std::int64_t> poisson_arrivals(util::Rng& rng, double rate_per_min,
                                           std::int64_t horizon_slots,
                                           double stop_ms = -1.0) {
  std::vector<std::int64_t> arrivals;
  if (rate_per_min <= 0.0 || horizon_slots <= 0) return arrivals;
  const double rate_per_slot = rate_per_min / 60'000.0;
  double t = 0.0;
  const double stop = stop_ms < 0.0 ? static_cast<double>(horizon_slots)
                                    : std::min(stop_ms, static_cast<double>(horizon_slots));
  while (true) {
    t += rng.exponential(rate_per_slot);
    if (t >= stop) break;
    arrivals.push_back(static_cast<std::int64_t>(t));
  }
  return arrivals;
}

std::vector<ChurnEvent> expand_churn(const FaultPlan& plan, std::uint64_t master_seed,
                                     std::uint32_t device_count, std::int64_t horizon_slots) {
  std::vector<ChurnEvent> churn = plan.scheduled;
  if (plan.churn_rate_per_min > 0.0 && device_count > 0) {
    util::Rng rng(util::derive_seed(master_seed, "fault.churn"));
    // Track per-device downtime so the random process never crashes a
    // device that is already down (the scheduled events are the caller's
    // responsibility and replayed verbatim).
    std::vector<std::int64_t> down_until(device_count, -1);
    for (const std::int64_t slot :
         poisson_arrivals(rng, plan.churn_rate_per_min, horizon_slots, plan.churn_stop_ms)) {
      const auto device = static_cast<std::uint32_t>(rng.uniform_index(device_count));
      const auto downtime = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(rng.exponential(1.0 / std::max(1.0, plan.mean_downtime_ms))));
      if (down_until[device] >= slot) continue;  // still down: skip this arrival
      down_until[device] = slot + downtime;
      churn.push_back(ChurnEvent{slot, device, true});
      churn.push_back(ChurnEvent{slot + downtime, device, false});
    }
  }
  std::erase_if(churn, [&](const ChurnEvent& e) {
    return e.slot >= horizon_slots || e.device >= device_count;
  });
  std::stable_sort(churn.begin(), churn.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) { return a.slot < b.slot; });
  return churn;
}

std::vector<FadeEpisode> expand_fades(const FaultPlan& plan, std::uint64_t master_seed,
                                      std::uint32_t device_count, std::int64_t horizon_slots) {
  std::vector<FadeEpisode> fades;
  if (plan.fade_rate_per_min <= 0.0 || device_count < 2) return fades;
  util::Rng rng(util::derive_seed(master_seed, "fault.fade"));
  for (const std::int64_t slot :
       poisson_arrivals(rng, plan.fade_rate_per_min, horizon_slots)) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(device_count));
    auto v = static_cast<std::uint32_t>(rng.uniform_index(device_count - 1));
    if (v >= u) ++v;
    const auto duration = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(rng.exponential(1.0 / std::max(1.0, plan.fade_mean_duration_ms))));
    fades.push_back(
        FadeEpisode{slot, std::min(slot + duration, horizon_slots), std::min(u, v), std::max(u, v)});
  }
  return fades;
}

}  // namespace

FaultSchedule expand_schedule(const FaultPlan& plan, std::uint32_t device_count,
                              std::int64_t horizon_slots, std::uint64_t master_seed) {
  return FaultSchedule{expand_churn(plan, master_seed, device_count, horizon_slots),
                       expand_fades(plan, master_seed, device_count, horizon_slots)};
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint32_t device_count,
                             std::uint64_t master_seed)
    : drop_probability_(plan.drop_probability),
      fade_depth_db_(plan.fade_depth_db),
      drift_ppm_(device_count, 0.0),
      fades_at_(device_count, 0),
      drop_rng_(util::derive_seed(master_seed, "fault.drop")) {
  if (plan.drift_max_ppm > 0.0) {
    util::Rng rng(util::derive_seed(master_seed, "fault.drift"));
    for (double& ppm : drift_ppm_) {
      ppm = rng.uniform(-plan.drift_max_ppm, plan.drift_max_ppm);
    }
  }
}

double FaultInjector::drift_ppm(std::uint32_t device) const {
  assert(device < drift_ppm_.size());
  return drift_ppm_[device];
}

std::uint64_t FaultInjector::link_key(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

void FaultInjector::fade_started(const FadeEpisode& episode) {
  assert(episode.u < fades_at_.size() && episode.v < fades_at_.size());
  active_fades_.insert(link_key(episode.u, episode.v));
  ++fades_at_[episode.u];
  ++fades_at_[episode.v];
}

void FaultInjector::fade_ended(const FadeEpisode& episode) {
  const auto it = active_fades_.find(link_key(episode.u, episode.v));
  if (it == active_fades_.end()) return;
  active_fades_.erase(it);
  --fades_at_[episode.u];
  --fades_at_[episode.v];
}

double FaultInjector::link_attenuation_db(std::uint32_t a, std::uint32_t b) const {
  if (active_fades_.empty()) return 0.0;
  return active_fades_.contains(link_key(a, b)) ? fade_depth_db_ : 0.0;
}

bool FaultInjector::fill_drops(std::uint8_t* dropped, std::size_t n) {
  if (drop_probability_ <= 0.0) return false;
  drop_rng_.fill_bernoulli(dropped, n, drop_probability_);
  return true;
}

bool FaultInjector::fill_attenuation(std::uint32_t sender, mac::PsType /*type*/,
                                     const std::uint32_t* rx_index, std::size_t n,
                                     double* attenuation_db) {
  if (sender >= fades_at_.size() || fades_at_[sender] == 0) return false;
  for (std::size_t i = 0; i < n; ++i) {
    attenuation_db[i] = link_attenuation_db(sender, rx_index[i]);
  }
  return true;
}

}  // namespace firefly::fault
