#include "fault/fault_injector.hpp"

#include <cassert>
#include <utility>

namespace firefly::fault {

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint32_t device_count,
                             std::uint64_t master_seed)
    : drop_probability_(plan.drop_probability),
      fade_depth_db_(plan.fade_depth_db),
      drift_ppm_(device_count, 0.0),
      fades_at_(device_count, 0),
      drop_rng_(util::derive_seed(master_seed, "fault.drop")),
      churn_(plan, device_count, master_seed),
      fades_(plan, device_count, master_seed) {
  if (plan.drift_max_ppm > 0.0) {
    util::Rng rng(util::derive_seed(master_seed, "fault.drift"));
    for (double& ppm : drift_ppm_) {
      ppm = rng.uniform(-plan.drift_max_ppm, plan.drift_max_ppm);
    }
  }
}

void FaultInjector::generate_until(std::int64_t to_slot, std::vector<ChurnEvent>& churn_out,
                                   std::vector<FadeEpisode>& fade_out) {
  churn_.generate_until(to_slot, churn_out);
  fades_.generate_until(to_slot, fade_out);
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

mac::ChannelFaults::DropProcess FaultInjector::drop_process() {
  if (drop_probability_ <= 0.0) return {};
  return {&drop_rng_, drop_probability_};
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
