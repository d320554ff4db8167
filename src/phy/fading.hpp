// fading.hpp — small-scale (fast) fading.
//
// Table I specifies "UMi (NLOS)" fast fading.  NLOS small-scale fading is
// classically Rayleigh: the power gain is exponential with unit mean, i.e.
// −10·log10(Exp(1)) dB of extra loss per slot.  Fast fading is redrawn every
// slot, unlike shadowing which is static per link.
//
// Every model is a transform of one uniform generator step per reception:
// the radio block-draws the uniforms, rejects provably sub-threshold ones on
// a single compare against `skip_u` and only pays the gain transform for
// the survivors.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/units.hpp"

namespace firefly::phy {

class FadingModel {
 public:
  /// Floor on the linear power gain: a deep fade produces a large but
  /// finite loss (60 dB) rather than −inf, which would poison dB
  /// arithmetic.
  static constexpr double kGainFloor = 1e-6;

  virtual ~FadingModel() = default;
  /// The linear power gain (unit mean) for one uniform step u ∈ (0, 1).
  [[nodiscard]] virtual double gain_from_uniform(double u) const = 0;
  /// Batched `gain_from_uniform`: out[j] = gain_from_uniform(u[j]) for
  /// j < n, bit for bit.  The radio calls it once per sender on that
  /// sender's compacted skip-test survivors, so a model overriding it pays
  /// one virtual call per sender instead of one per survivor.
  virtual void gains_from_uniforms(const double* u, std::size_t n, double* out) const {
    for (std::size_t j = 0; j < n; ++j) out[j] = gain_from_uniform(u[j]);
  }
  /// Conservative uniform bound: u ≥ skip_u(g) guarantees the gain is below
  /// g.  A value above 1 never skips.
  [[nodiscard]] virtual double skip_u(double min_gain) const = 0;

  /// dB loss for a linear power gain, floored at `kGainFloor`.
  [[nodiscard]] static util::Db loss_from_gain(double gain) {
    return util::Db{-10.0 * std::log10(std::max(gain, kGainFloor))};
  }
};

/// Rayleigh fading: power gain ~ Exp(1).
class RayleighFading final : public FadingModel {
 public:
  // Gain = −ln(u) is a decreasing transform of one uniform step, so
  // "gain < g" is exactly "u > e^{−g}"; the 1e-12 relative slack absorbs
  // the rounding of exp/log (≲1 ulp each), keeping the skip conservative —
  // borderline draws fall through to the exact dBm comparison.
  [[nodiscard]] double gain_from_uniform(double u) const override { return -std::log(u); }
  // The default loop with the transform bound statically, so the survivor
  // loop runs without an indirect call per element.
  void gains_from_uniforms(const double* u, std::size_t n, double* out) const override {
    for (std::size_t j = 0; j < n; ++j) out[j] = RayleighFading::gain_from_uniform(u[j]);
  }
  [[nodiscard]] double skip_u(double min_gain) const override {
    return std::exp(-min_gain) * (1.0 + 1e-12);
  }
};

}  // namespace firefly::phy
