// fading.hpp — small-scale (fast) fading.
//
// Table I specifies "UMi (NLOS)" fast fading.  NLOS small-scale fading is
// classically Rayleigh: the power gain is exponential with unit mean, i.e.
// −10·log10(Exp(1)) dB of extra loss per slot.  Nakagami-m generalises it
// (m = 1 reduces to Rayleigh; larger m approaches LOS Rician behaviour);
// the ablation benches sweep m.  Fast fading is redrawn every slot, unlike
// shadowing which is static per link.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace firefly::phy {

class FadingModel {
 public:
  /// Floor on the linear power gain: a deep fade produces a large but
  /// finite loss (60 dB) rather than −inf, which would poison dB
  /// arithmetic.
  static constexpr double kGainFloor = 1e-6;

  virtual ~FadingModel() = default;
  /// Linear power gain for one reception (unit mean).  Consumes exactly
  /// the randomness `sample` would — the radio's fast path draws the gain,
  /// tests it against a precomputed threshold and only converts to dB for
  /// audible receptions.
  [[nodiscard]] virtual double sample_gain(util::Rng& rng) const = 0;
  /// Extra loss in dB for one reception (negative values = constructive).
  [[nodiscard]] virtual util::Db sample(util::Rng& rng) const {
    return loss_from_gain(sample_gain(rng));
  }
  [[nodiscard]] virtual double mean_power_gain() const = 0;

  /// u-space skip support.  When true, `sample_gain` consumes exactly one
  /// generator step and equals `gain_from_uniform(rng.unit_open())`, so
  /// the radio's fast path can draw the raw uniform, discard provably
  /// sub-threshold receptions on a single comparison against
  /// `skip_u(min_gain)` and only evaluate the gain transform (a log, for
  /// Rayleigh) for survivors.
  [[nodiscard]] virtual bool supports_uniform_skip() const { return false; }
  /// The gain transform for one uniform draw (only when supported); must
  /// be bit-identical to what `sample_gain` computes from the same step.
  [[nodiscard]] virtual double gain_from_uniform(double /*u*/) const { return 0.0; }
  /// Batched `gain_from_uniform`: out[j] = gain_from_uniform(u[idx[j]]) for
  /// j < n, bit for bit.  The radio calls it once per sender for that
  /// sender's skip-test survivors, so a model overriding it pays one
  /// virtual call per sender instead of one per survivor.
  virtual void gains_from_uniforms(const double* u, const std::uint32_t* idx, std::size_t n,
                                   double* out) const {
    for (std::size_t j = 0; j < n; ++j) out[j] = gain_from_uniform(u[idx[j]]);
  }
  /// Conservative uniform bound: u ≥ skip_u(g) guarantees the sampled
  /// gain is below g.  Default 2.0 (> any uniform) never skips.
  [[nodiscard]] virtual double skip_u(double /*min_gain*/) const { return 2.0; }

  /// dB loss for a linear power gain, floored at `kGainFloor`.
  [[nodiscard]] static util::Db loss_from_gain(double gain) {
    return util::Db{-10.0 * std::log10(std::max(gain, kGainFloor))};
  }
};

/// No fast fading: deterministic tests and analytic validation.
class NoFading final : public FadingModel {
 public:
  [[nodiscard]] double sample_gain(util::Rng&) const override { return 1.0; }
  [[nodiscard]] util::Db sample(util::Rng&) const override { return util::Db{0.0}; }
  [[nodiscard]] double mean_power_gain() const override { return 1.0; }
};

/// Rayleigh fading: power gain ~ Exp(1).
class RayleighFading final : public FadingModel {
 public:
  [[nodiscard]] double sample_gain(util::Rng& rng) const override;
  [[nodiscard]] double mean_power_gain() const override { return 1.0; }

  // Gain = −ln(u) is a decreasing transform of one uniform step, so
  // "gain < g" is exactly "u > e^{−g}"; the 1e-12 relative slack absorbs
  // the rounding of exp/log (≲1 ulp each), keeping the skip conservative —
  // borderline draws fall through to the exact dBm comparison.
  [[nodiscard]] bool supports_uniform_skip() const override { return true; }
  [[nodiscard]] double gain_from_uniform(double u) const override { return -std::log(u); }
  // The default loop with the transform bound statically, so the survivor
  // loop runs without an indirect call per element.
  void gains_from_uniforms(const double* u, const std::uint32_t* idx, std::size_t n,
                           double* out) const override {
    for (std::size_t j = 0; j < n; ++j) out[j] = RayleighFading::gain_from_uniform(u[idx[j]]);
  }
  [[nodiscard]] double skip_u(double min_gain) const override {
    return std::exp(-min_gain) * (1.0 + 1e-12);
  }
};

/// Rician fading with K-factor (LOS-dominated links): the amplitude is
/// |sqrt(K/(K+1)) + CN(0, 1/(K+1))|, unit mean power.  K = 0 reduces to
/// Rayleigh; large K approaches no fading.  Used by the LOS ablation —
/// Table I itself is NLOS, hence Rayleigh.
class RicianFading final : public FadingModel {
 public:
  explicit RicianFading(double k_factor) : k_(k_factor) {}

  [[nodiscard]] double sample_gain(util::Rng& rng) const override;
  [[nodiscard]] double mean_power_gain() const override { return 1.0; }
  [[nodiscard]] double k_factor() const { return k_; }

 private:
  double k_;
};

/// Nakagami-m fading: power gain ~ Gamma(m, 1/m) (unit mean).
class NakagamiFading final : public FadingModel {
 public:
  explicit NakagamiFading(double m) : m_(m) {}

  [[nodiscard]] double sample_gain(util::Rng& rng) const override;
  [[nodiscard]] double mean_power_gain() const override { return 1.0; }
  [[nodiscard]] double m() const { return m_; }

 private:
  double m_;
};

}  // namespace firefly::phy
