// shadowing.hpp — log-normal shadow fading (paper eq. 9).
//
// The paper models medium-scale fading as a zero-mean Gaussian `x` in dB
// with standard deviation σ = 10 dB (Table I).  For a *static* deployment a
// link's shadowing is constant over the run (obstructions don't move), so
// the model draws once per unordered link — which also makes the link
// symmetric, as the ranging analysis assumes.  Every query is a pure
// function of the link: nothing is memoised, and query order never matters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace firefly::phy {

class ShadowingModel {
 public:
  virtual ~ShadowingModel() = default;
  /// Shadowing loss in dB for the (a, b) link (may be negative = gain).
  [[nodiscard]] virtual util::Db sample(std::uint32_t a, std::uint32_t b) const = 0;
  /// Batched `sample`: out_db[k] = sample(a, b[k]) for k < n, bit for bit,
  /// in one virtual call (the candidate rebuild's per-row exact means).
  virtual void samples(std::uint32_t a, const std::uint32_t* b, std::size_t n,
                       double* out_db) const {
    for (std::size_t k = 0; k < n; ++k) out_db[k] = sample(a, b[k]).value;
  }
  /// A lower bound in dB on `sample(a, b)`, cheap enough to reject a
  /// candidate pair before any transcendental call.  The default,
  /// −`max_gain_db()`, holds for every model: −inf for unbounded ones (the
  /// bound never rejects) and exact for a model with no shadowing.
  [[nodiscard]] virtual double loss_lower_bound(std::uint32_t /*a*/, std::uint32_t /*b*/) const {
    return -max_gain_db();
  }
  /// Batched `loss_lower_bound`, one virtual call per row.
  virtual void loss_lower_bounds(std::uint32_t a, const std::uint32_t* b, std::size_t n,
                                 double* out_db) const {
    for (std::size_t k = 0; k < n; ++k) out_db[k] = loss_lower_bound(a, b[k]);
  }
  /// Upper bound on the shadowing *gain* (−sample) in dB, used to bound
  /// the maximum detectable range for spatial pruning; +inf when the model
  /// is unbounded (pruning then degrades to a dense scan, never to a wrong
  /// answer).
  [[nodiscard]] virtual double max_gain_db() const {
    return std::numeric_limits<double>::infinity();
  }
  /// Decorrelate every link after large-scale movement; models whose draws
  /// do not depend on the epoch ignore it.
  virtual void invalidate() {}
};

/// One Gaussian draw per unordered link: the static-scenario model.
/// Symmetric by construction: sample(a,b) == sample(b,a).
///
/// The draw is *hash-derived* from (seed, link, epoch) rather than consumed
/// from a sequential stream, so a link's value never depends on which other
/// links were queried first — the property that lets the spatial-index
/// radio path evaluate exactly the same channel as a dense scan.  Draws are
/// clamped at ±`kClampSigmas`·σ, giving the hard `max_gain_db` bound that
/// makes range-based candidate pruning exact; the clamp shifts the per-link
/// variance by < 0.5% (truncation probability ≈ 2.7e-3 per link).
///
/// Because a draw is a pure function of its two hash words, it can also be
/// *bounded* from those words alone (`loss_lower_bound`): the top
/// 10 bits of each word pick a bucket of u1 and of u2, and static 1,024-entry
/// tables give r = √(−2 ln u1) ∈ [r_lo, r_hi] and cos(2πu2) ≥ c_lo over the
/// bucket, rounded outward by `kBoundSlack`.  The normal is then at least
/// min(r_lo·c_lo, r_hi·c_lo): two loads and two multiplies, no libm call.
class PerLinkShadowing final : public ShadowingModel {
 public:
  /// Truncation point for link draws, in standard deviations.
  static constexpr double kClampSigmas = 3.0;
  /// Bucket bits per hash word for the bound tables (1,024 buckets).
  static constexpr int kBoundBits = 10;
  /// Outward rounding of every bound-table entry, far above the few-ulp
  /// error of evaluating r and cos at any point of a bucket.
  static constexpr double kBoundSlack = 1e-9;

  PerLinkShadowing(double sigma_db, std::uint64_t seed) : sigma_(sigma_db), seed_(seed) {}

  [[nodiscard]] util::Db sample(std::uint32_t a, std::uint32_t b) const override;
  void samples(std::uint32_t a, const std::uint32_t* b, std::size_t n,
               double* out_db) const override;
  [[nodiscard]] double loss_lower_bound(std::uint32_t a, std::uint32_t b) const override;
  void loss_lower_bounds(std::uint32_t a, const std::uint32_t* b, std::size_t n,
                         double* out_db) const override;
  [[nodiscard]] double max_gain_db() const override { return kClampSigmas * sigma_; }
  /// The unclamped unit normal of a draw, from its two hash words
  /// (Box–Muller).
  [[nodiscard]] static double unit_normal(std::uint64_t w1, std::uint64_t w2);
  /// A lower bound on `unit_normal(w1, w2)` by table lookup on the words'
  /// top `kBoundBits` bits.
  [[nodiscard]] static double unit_normal_lower_bound(std::uint64_t w1, std::uint64_t w2);
  /// Decorrelate every link (epoch bump).
  void invalidate() override { ++epoch_; }

 private:
  struct Words {
    std::uint64_t w1, w2;
  };
  /// The link's two hash words under the current seed and epoch.
  [[nodiscard]] Words words(std::uint32_t a, std::uint32_t b) const;

  double sigma_;
  std::uint64_t seed_;
  std::uint64_t epoch_ = 0;
};

}  // namespace firefly::phy
