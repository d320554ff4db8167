// test_worlds.hpp — what tests build their worlds from and no program
// uses: channel models with no fast fading and no shadowing (the paper's
// channel is Rayleigh fading over per-link log-normal shadowing,
// phy/channel.hpp), the area-membership check the deployment and mobility
// tests assert, and the RunMetrics digest the recorded-result tests pin.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "core/report.hpp"
#include "geo/point.hpp"
#include "obs/json.hpp"
#include "phy/fading.hpp"
#include "phy/shadowing.hpp"

namespace firefly::core {

/// A run's metrics as the deterministic JSON serializer writes them
/// (shortest-round-trip doubles, so one ULP of drift changes the text).
[[nodiscard]] inline std::string metrics_json(const RunMetrics& metrics) {
  std::ostringstream oss;
  obs::JsonWriter w(oss);
  write_run_metrics_json(w, metrics);
  return oss.str();
}

/// FNV-1a-64 of `text`: with `metrics_json`, the digest a recorded-result
/// test compares against.
[[nodiscard]] inline std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace firefly::core

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
