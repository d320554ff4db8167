// test_worlds.hpp — what tests build their worlds from and no program
// uses: channel models with no fast fading and no shadowing (the paper's
// channel is Rayleigh fading over per-link log-normal shadowing,
// phy/channel.hpp), and the area-membership check the deployment and
// mobility tests assert.
#pragma once

#include <cstdint>

#include "geo/point.hpp"
#include "phy/fading.hpp"
#include "phy/shadowing.hpp"

namespace firefly::geo {

/// Whether `p` lies in [0, width] x [0, height].
[[nodiscard]] constexpr bool in_area(const Area& area, Vec2 p) {
  return p.x >= 0.0 && p.x <= area.width && p.y >= 0.0 && p.y <= area.height;
}

}  // namespace firefly::geo

namespace firefly::phy {

/// No fast fading: deterministic tests and analytic validation.  The gain is
/// 1 whatever the uniform, so every uniform skips when g > 1 and none does
/// otherwise.
class NoFading final : public FadingModel {
 public:
  [[nodiscard]] double gain_from_uniform(double /*u*/) const override { return 1.0; }
  [[nodiscard]] double skip_u(double min_gain) const override {
    return min_gain > 1.0 ? 0.0 : 2.0;
  }
};

/// No shadowing (σ = 0).
class NoShadowing final : public ShadowingModel {
 public:
  [[nodiscard]] util::Db sample(std::uint32_t, std::uint32_t) const override {
    return util::Db{0.0};
  }
  [[nodiscard]] double max_gain_db() const override { return 0.0; }
};

}  // namespace firefly::phy
