// Tests for fast-fading models (src/phy/fading.hpp).
#include "phy/fading.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace {

using namespace firefly::phy;
using firefly::util::Rng;

/// One reception's extra loss in dB: one uniform step through the model.
double sample_loss_db(const FadingModel& model, Rng& rng) {
  return FadingModel::loss_from_gain(model.gain_from_uniform(rng.unit_open())).value;
}

TEST(NoFading, Zero) {
  NoFading model;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.gain_from_uniform(rng.unit_open()), 1.0);
  }
  EXPECT_DOUBLE_EQ(sample_loss_db(model, rng), 0.0);
}

TEST(NoFading, SkipsEveryUniformExactlyWhenTheGainMustExceedOne) {
  // The gain is 1 whatever the uniform: below a minimum gain g > 1 every
  // draw is provably short (skip at u >= 0), at g <= 1 none is (skip_u > 1).
  const NoFading model;
  for (const double g : {0.0, 1e-6, 0.5, std::nextafter(1.0, 0.0), 1.0}) {
    EXPECT_GT(model.skip_u(g), 1.0) << g;
  }
  for (const double g : {std::nextafter(1.0, 2.0), 1.5, 1e6,
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_LE(model.skip_u(g), 0.0) << g;
  }
}

double empirical_mean_gain(const FadingModel& model, int n, std::uint64_t seed) {
  Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += std::pow(10.0, -sample_loss_db(model, rng) / 10.0);
  }
  return sum / n;
}

TEST(Rayleigh, UnitMeanPowerGain) {
  RayleighFading model;
  EXPECT_NEAR(empirical_mean_gain(model, 200000, 2), 1.0, 0.02);
}

TEST(Rayleigh, MedianLossNearOnePointSixDb) {
  // Median of Exp(1) is ln 2 → median loss = -10·log10(ln 2) ≈ 1.59 dB.
  RayleighFading model;
  Rng rng(3);
  int deeper = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (sample_loss_db(model, rng) > 1.59) ++deeper;
  }
  EXPECT_NEAR(deeper / static_cast<double>(n), 0.5, 0.01);
}

TEST(Rayleigh, DeepFadesAreBounded) {
  // The -60 dB gain floor keeps losses finite.
  RayleighFading model;
  Rng rng(4);
  for (int i = 0; i < 200000; ++i) {
    const double loss = sample_loss_db(model, rng);
    ASSERT_LE(loss, 60.0 + 1e-9);
    ASSERT_TRUE(std::isfinite(loss));
  }
}

// The radio's batched gain transform must be bit-equal to the scalar one.
// Also catches a compiler substituting a vector libm log in the loop.
void expect_batched_gains_bitwise_equal(const FadingModel& model) {
  std::vector<double> u(1'000'000);
  Rng rng(2024);
  rng.fill_unit_open(u.data(), u.size());
  u.push_back(0x1.0p-54);
  u.push_back(0.5);
  u.push_back(1.0 - 0x1.0p-53);
  // Survivor indices: every position, then a gathered (strided) subset.
  std::vector<std::uint32_t> idx(u.size());
  for (std::uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::vector<std::uint32_t> strided;
  for (std::uint32_t i = 0; i < u.size(); i += 3) strided.push_back(i);
  strided.push_back(static_cast<std::uint32_t>(u.size() - 1));
  for (const auto* sel : {&idx, &strided}) {
    std::vector<double> out(sel->size());
    model.gains_from_uniforms(u.data(), sel->data(), sel->size(), out.data());
    for (std::size_t j = 0; j < sel->size(); ++j) {
      const double want = model.gain_from_uniform(u[(*sel)[j]]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[j]), std::bit_cast<std::uint64_t>(want))
          << "u=" << u[(*sel)[j]];
    }
  }
}

TEST(Rayleigh, BatchedGainsEqualScalarBitwise) {
  expect_batched_gains_bitwise_equal(RayleighFading{});
}

TEST(FadingModel, DefaultBatchedGainsEqualScalarBitwise) {
  // Overrides only the scalar transform, so the batch takes the default loop.
  class ScalarOnly final : public FadingModel {
   public:
    [[nodiscard]] double gain_from_uniform(double u) const override {
      return std::sqrt(-std::log(u)) * 1.5;
    }
    [[nodiscard]] double skip_u(double /*min_gain*/) const override { return 2.0; }
  };
  expect_batched_gains_bitwise_equal(ScalarOnly{});
}

}  // namespace
