#include "phy/link.hpp"

#include <cassert>
#include <cmath>

namespace firefly::phy {

double snr_linear(util::Dbm received, util::Dbm noise) {
  return (received - noise).ratio();
}

double rayleigh_ergodic_rate_mbps(util::Dbm mean_received, util::Dbm noise,
                                  double bandwidth_hz) {
  assert(bandwidth_hz > 0.0);
  const double snr_mean = snr_linear(mean_received, noise);
  // Midpoint quadrature over the uniform quantile u of g = −ln(1 − u):
  // E[f(g)] = ∫₀¹ f(−ln(1−u)) du.
  constexpr int kPoints = 2048;
  double sum = 0.0;
  for (int i = 0; i < kPoints; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / kPoints;
    const double gain = -std::log(1.0 - u);
    sum += std::log2(1.0 + snr_mean * gain);
  }
  return bandwidth_hz * (sum / kPoints) / 1e6;
}

}  // namespace firefly::phy
