#include "phy/channel.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace firefly::phy {

Channel::Channel(RadioParams params, std::unique_ptr<PathLossModel> pathloss,
                 std::unique_ptr<ShadowingModel> shadowing,
                 std::unique_ptr<FadingModel> fading, util::Rng fading_rng)
    : params_(params),
      pathloss_(std::move(pathloss)),
      shadowing_(std::move(shadowing)),
      fading_(std::move(fading)),
      fading_rng_(fading_rng) {
  if (pathloss_ == nullptr || shadowing_ == nullptr || fading_ == nullptr) {
    throw std::invalid_argument("Channel: null propagation model");
  }
}

util::Dbm Channel::mean_received_power(std::uint32_t tx_id, geo::Vec2 tx_pos,
                                       std::uint32_t rx_id, geo::Vec2 rx_pos) const {
  const double d = geo::distance(tx_pos, rx_pos);
  return params_.tx_power - pathloss_->loss(d) - shadowing_->sample(tx_id, rx_id);
}

void Channel::mean_received_powers(std::uint32_t tx_id, geo::Vec2 tx_pos,
                                   const std::uint32_t* rx_ids, const geo::Vec2* rx_pos,
                                   std::size_t n, double* out_dbm) const {
  // Term for term the scalar query's expression, so the two agree bit for bit.
  shadowing_->samples(tx_id, rx_ids, n, out_dbm);
  for (std::size_t k = 0; k < n; ++k) {
    const double d = geo::distance(tx_pos, rx_pos[k]);
    out_dbm[k] = (params_.tx_power - pathloss_->loss(d) - util::Db{out_dbm[k]}).value;
  }
}

double Channel::median_range() const {
  const util::Db budget = params_.tx_power - params_.detection_threshold;
  return pathloss_->distance_for_loss(budget);
}

double Channel::max_detectable_range(double extra_margin_db) const {
  const double shadow_gain = shadowing_->max_gain_db();
  if (!std::isfinite(shadow_gain)) return std::numeric_limits<double>::infinity();
  const util::Db budget = (params_.tx_power - params_.detection_threshold) +
                          util::Db{extra_margin_db + shadow_gain};
  return pathloss_->distance_for_loss(budget);
}

std::unique_ptr<Channel> make_paper_channel(std::uint64_t master_seed, RadioParams params) {
  util::RngFactory factory(master_seed);
  return std::make_unique<Channel>(
      params, make_paper_model(),
      std::make_unique<PerLinkShadowing>(params.shadowing_sigma_db,
                                         util::derive_seed(master_seed, "phy.shadowing")),
      std::make_unique<RayleighFading>(), factory.make("phy.fading"));
}

}  // namespace firefly::phy
