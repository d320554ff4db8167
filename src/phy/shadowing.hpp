// shadowing.hpp — log-normal shadow fading (paper eq. 9).
//
// The paper models medium-scale fading as a zero-mean Gaussian `x` in dB
// with standard deviation σ = 10 dB (Table I).  For a *static* deployment a
// link's shadowing is constant over the run (obstructions don't move), so
// the default model draws once per unordered link and memoises — this also
// makes the link symmetric, which the ranging analysis assumes.  An i.i.d.
// per-sample mode is provided for the analytic-error validation bench, and
// a distance-correlated (Gudmundson) mode for the mobility extension.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "geo/point.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace firefly::phy {

class ShadowingModel {
 public:
  virtual ~ShadowingModel() = default;
  /// Shadowing loss in dB for the (a, b) link (may be negative = gain).
  [[nodiscard]] virtual util::Db sample(std::uint32_t a, std::uint32_t b) = 0;
  /// Like `sample`, but guaranteed not to grow memoised state — the
  /// spatial-index bulk rebuilds use it so scanning millions of candidate
  /// pairs does not inflate the per-link cache.  Models whose draws are
  /// order-dependent (or stateless) simply forward to `sample`.
  [[nodiscard]] virtual util::Db sample_uncached(std::uint32_t a, std::uint32_t b) {
    return sample(a, b);
  }
  /// Batched `sample_uncached`: out_db[k] = sample_uncached(a, b[k]) for
  /// k < n, bit for bit, in one virtual call (the candidate rebuild's
  /// per-row exact means).
  virtual void samples_uncached(std::uint32_t a, const std::uint32_t* b, std::size_t n,
                                double* out_db) {
    for (std::size_t k = 0; k < n; ++k) out_db[k] = sample_uncached(a, b[k]).value;
  }
  /// A lower bound in dB on `sample_uncached(a, b)`, cheap enough to reject
  /// a candidate pair before any transcendental call.  The default,
  /// −`max_gain_db()`, holds for every model: −inf for unbounded ones (the
  /// bound never rejects) and exact for `NoShadowing`.
  [[nodiscard]] virtual double loss_lower_bound_uncached(std::uint32_t /*a*/,
                                                         std::uint32_t /*b*/) const {
    return -max_gain_db();
  }
  /// Batched `loss_lower_bound_uncached`, one virtual call per row.
  virtual void loss_lower_bounds_uncached(std::uint32_t a, const std::uint32_t* b, std::size_t n,
                                          double* out_db) const {
    for (std::size_t k = 0; k < n; ++k) out_db[k] = loss_lower_bound_uncached(a, b[k]);
  }
  [[nodiscard]] virtual double sigma_db() const = 0;
  /// Upper bound on the shadowing *gain* (−sample) in dB, used to bound
  /// the maximum detectable range for spatial pruning; +inf when the model
  /// is unbounded (pruning then degrades to a dense scan, never to a wrong
  /// answer).
  [[nodiscard]] virtual double max_gain_db() const {
    return std::numeric_limits<double>::infinity();
  }
  /// Invalidate memoised link state after large-scale movement; models
  /// without memoised state ignore it.
  virtual void invalidate() {}
};

/// No shadowing (σ = 0): for deterministic unit tests.
class NoShadowing final : public ShadowingModel {
 public:
  [[nodiscard]] util::Db sample(std::uint32_t, std::uint32_t) override { return util::Db{0.0}; }
  [[nodiscard]] double sigma_db() const override { return 0.0; }
  [[nodiscard]] double max_gain_db() const override { return 0.0; }
};

/// Fresh Gaussian draw on every call (eq. 9 verbatim).
class IidShadowing final : public ShadowingModel {
 public:
  IidShadowing(double sigma_db, util::Rng rng) : sigma_(sigma_db), rng_(rng) {}

  [[nodiscard]] util::Db sample(std::uint32_t, std::uint32_t) override {
    return util::Db{rng_.normal(0.0, sigma_)};
  }
  [[nodiscard]] double sigma_db() const override { return sigma_; }

 private:
  double sigma_;
  util::Rng rng_;
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
/// `sample` memoises into a per-link cache (the dense scan's working set);
/// `sample_uncached` recomputes the identical value without touching it.
///
/// Because a draw is a pure function of its two hash words, it can also be
/// *bounded* from those words alone (`loss_lower_bound_uncached`): the top
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
  /// Compatibility constructor: derives the hash seed from the stream.
  PerLinkShadowing(double sigma_db, util::Rng rng) : sigma_(sigma_db), seed_(rng.bits()) {}

  [[nodiscard]] util::Db sample(std::uint32_t a, std::uint32_t b) override;
  [[nodiscard]] util::Db sample_uncached(std::uint32_t a, std::uint32_t b) override {
    return util::Db{draw(a, b)};
  }
  void samples_uncached(std::uint32_t a, const std::uint32_t* b, std::size_t n,
                        double* out_db) override;
  [[nodiscard]] double loss_lower_bound_uncached(std::uint32_t a, std::uint32_t b) const override;
  void loss_lower_bounds_uncached(std::uint32_t a, const std::uint32_t* b, std::size_t n,
                                  double* out_db) const override;
  [[nodiscard]] double sigma_db() const override { return sigma_; }
  [[nodiscard]] double max_gain_db() const override { return kClampSigmas * sigma_; }
  /// The unclamped unit normal of a draw, from its two hash words
  /// (Box–Muller).
  [[nodiscard]] static double unit_normal(std::uint64_t w1, std::uint64_t w2);
  /// A lower bound on `unit_normal(w1, w2)` by table lookup on the words'
  /// top `kBoundBits` bits.
  [[nodiscard]] static double unit_normal_lower_bound(std::uint64_t w1, std::uint64_t w2);
  /// Decorrelate every link (epoch bump) and drop the memoised draws.
  void reset() {
    ++epoch_;
    cache_.clear();
  }
  void invalidate() override { reset(); }

 private:
  struct Words {
    std::uint64_t w1, w2;
  };
  /// The link's two hash words under the current seed and epoch.
  [[nodiscard]] Words words(std::uint32_t a, std::uint32_t b) const;
  [[nodiscard]] double draw(std::uint32_t a, std::uint32_t b) const;

  double sigma_;
  std::uint64_t seed_;
  std::uint64_t epoch_ = 0;
  std::unordered_map<std::uint64_t, double> cache_;
};

/// Spatially correlated shadowing (Gudmundson-style).
///
/// Each link's shadowing is σ · F(midpoint(p_a, p_b)), where F is a smooth
/// unit-variance Gaussian random field realised by bilinear interpolation
/// of an i.i.d. grid with spacing equal to the decorrelation distance
/// (re-normalised so the pointwise variance stays exactly 1).
/// Consequences the tests pin: per-link variance σ², symmetry by
/// construction, and links whose midpoints are close see strongly
/// correlated shadowing while far-apart links decorrelate — obstructions
/// are shared by co-located links, which i.i.d. per-link draws cannot
/// express.  Device positions are fixed at construction (the static
/// Table I deployment); `field_at` is exposed for tests and visualisation.
class CorrelatedShadowing final : public ShadowingModel {
 public:
  CorrelatedShadowing(double sigma_db, double decorrelation_m,
                      std::vector<geo::Vec2> positions, util::Rng rng);

  [[nodiscard]] util::Db sample(std::uint32_t a, std::uint32_t b) override;
  [[nodiscard]] double sigma_db() const override { return sigma_; }

  /// The underlying unit-variance field (for tests/ablation).
  [[nodiscard]] double field_at(geo::Vec2 p) const;

 private:
  [[nodiscard]] double grid_value(std::int64_t ix, std::int64_t iy) const;

  double sigma_;
  double spacing_;
  std::vector<geo::Vec2> positions_;
  // Lazily drawn grid values keyed by cell index; mutable via const helper.
  mutable std::unordered_map<std::uint64_t, double> grid_;
  mutable util::Rng rng_;
  std::uint64_t field_seed_;
};

}  // namespace firefly::phy
