#include "phy/shadowing.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace firefly::phy {

namespace {

// The draw's two uniforms and Box–Muller factors, shared by the draw and
// the bound tables so both evaluate the same expressions.
double first_uniform(std::uint64_t w) {  // (0, 1): u1 never hits 0
  return (static_cast<double>(w >> 11) + 0.5) * 0x1.0p-53;
}
double second_uniform(std::uint64_t w) {  // [0, 1)
  return static_cast<double>(w >> 11) * 0x1.0p-53;
}
double radius(double u1) { return std::sqrt(-2.0 * std::log(u1)); }
double cosine(double u2) { return std::cos(6.283185307179586 * u2); }

constexpr std::size_t kBuckets = std::size_t{1} << PerLinkShadowing::kBoundBits;
constexpr int kBucketShift = 64 - PerLinkShadowing::kBoundBits;

// Per bucket of a word's top bits: the radius range over every u1 the
// bucket holds, and the least cosine over every u2.  r is decreasing in u1,
// and each u2 bucket lies on one side of 0.5 (a bucket edge), where cos(2πu)
// turns, so every extreme sits at a bucket's first or last word.
struct RadiusRange {
  double lo, hi;
};
struct BoundTables {
  std::array<RadiusRange, kBuckets> r;
  std::array<double, kBuckets> c_lo;
};

const BoundTables& bound_tables() {
  static const BoundTables tables = [] {
    BoundTables t{};
    constexpr std::uint64_t kLowBits = (std::uint64_t{1} << kBucketShift) - 1;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t first = static_cast<std::uint64_t>(i) << kBucketShift;
      const std::uint64_t last = first | kLowBits;
      const double slack = PerLinkShadowing::kBoundSlack;
      t.r[i] = {radius(first_uniform(last)) - slack, radius(first_uniform(first)) + slack};
      t.c_lo[i] = std::min(cosine(second_uniform(first)), cosine(second_uniform(last))) - slack;
    }
    return t;
  }();
  return tables;
}

// r·c ≥ r·c_lo for r ≥ 0, and r·c_lo is linear in r ∈ [r_lo, r_hi].
double normal_lower_bound(const BoundTables& t, std::uint64_t w1, std::uint64_t w2) {
  const double c_lo = t.c_lo[w2 >> kBucketShift];
  const RadiusRange r = t.r[w1 >> kBucketShift];
  return std::min(r.lo * c_lo, r.hi * c_lo);
}

}  // namespace

double PerLinkShadowing::unit_normal(std::uint64_t w1, std::uint64_t w2) {
  return radius(first_uniform(w1)) * cosine(second_uniform(w2));
}

double PerLinkShadowing::unit_normal_lower_bound(std::uint64_t w1, std::uint64_t w2) {
  return normal_lower_bound(bound_tables(), w1, w2);
}

PerLinkShadowing::Words PerLinkShadowing::words(std::uint32_t a, std::uint32_t b) const {
  const std::uint32_t lo = std::min(a, b);
  const std::uint32_t hi = std::max(a, b);
  const std::uint64_t key = (static_cast<std::uint64_t>(lo) << 32) | hi;
  // Hash-derived: identical regardless of query order.
  util::SplitMix64 mixer(seed_ ^ (key * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL) ^
                         (epoch_ * 0xA0761D6478BD642FULL));
  const std::uint64_t w1 = mixer.next();
  return Words{w1, mixer.next()};
}

util::Db PerLinkShadowing::sample(std::uint32_t a, std::uint32_t b) const {
  const Words w = words(a, b);
  return util::Db{sigma_ * std::clamp(unit_normal(w.w1, w.w2), -kClampSigmas, kClampSigmas)};
}

void PerLinkShadowing::samples(std::uint32_t a, const std::uint32_t* b, std::size_t n,
                               double* out_db) const {
  for (std::size_t k = 0; k < n; ++k) out_db[k] = sample(a, b[k]).value;
}

void PerLinkShadowing::loss_lower_bounds(std::uint32_t a, const std::uint32_t* b, std::size_t n,
                                         double* out_db) const {
  // Clamping and scaling by σ ≥ 0 are monotone, so they keep the bound.
  if (!(sigma_ >= 0.0)) {
    std::fill(out_db, out_db + n, -std::numeric_limits<double>::infinity());
    return;
  }
  const BoundTables& t = bound_tables();
  for (std::size_t k = 0; k < n; ++k) {
    const Words w = words(a, b[k]);
    out_db[k] =
        sigma_ * std::clamp(normal_lower_bound(t, w.w1, w.w2), -kClampSigmas, kClampSigmas);
  }
}

}  // namespace firefly::phy
