// Tests for fast-fading models (src/phy/fading.hpp).
#include "phy/fading.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace {

using namespace firefly::phy;
using firefly::util::Rng;

TEST(NoFading, Zero) {
  NoFading model;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(model.sample(rng).value, 0.0);
  EXPECT_DOUBLE_EQ(model.mean_power_gain(), 1.0);
}

double empirical_mean_gain(const FadingModel& model, int n, std::uint64_t seed) {
  Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += std::pow(10.0, -model.sample(rng).value / 10.0);
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
    if (model.sample(rng).value > 1.59) ++deeper;
  }
  EXPECT_NEAR(deeper / static_cast<double>(n), 0.5, 0.01);
}

TEST(Rayleigh, DeepFadesAreBounded) {
  // The -60 dB gain floor keeps losses finite.
  RayleighFading model;
  Rng rng(4);
  for (int i = 0; i < 200000; ++i) {
    const double loss = model.sample(rng).value;
    ASSERT_LE(loss, 60.0 + 1e-9);
    ASSERT_TRUE(std::isfinite(loss));
  }
}

class NakagamiParamTest : public ::testing::TestWithParam<double> {};

TEST_P(NakagamiParamTest, UnitMeanPowerGain) {
  NakagamiFading model(GetParam());
  EXPECT_NEAR(empirical_mean_gain(model, 150000, 5), 1.0, 0.025) << "m=" << GetParam();
}

TEST_P(NakagamiParamTest, VarianceShrinksWithM) {
  // Power gain ~ Gamma(m, 1/m): variance = 1/m.
  const double m = GetParam();
  NakagamiFading model(m);
  Rng rng(6);
  const int n = 150000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = std::pow(10.0, -model.sample(rng).value / 10.0);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(var, 1.0 / m, 0.1 / m + 0.01) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(SweepM, NakagamiParamTest, ::testing::Values(0.5, 1.0, 2.0, 4.0));

TEST(Nakagami, MEqualsOneMatchesRayleighDistribution) {
  // Nakagami-1 is Rayleigh: compare empirical exceedance at a few points.
  NakagamiFading nak(1.0);
  RayleighFading ray;
  Rng rng_n(7), rng_r(7);
  const int n = 100000;
  int nak_deep = 0, ray_deep = 0;
  for (int i = 0; i < n; ++i) {
    if (nak.sample(rng_n).value > 10.0) ++nak_deep;
    if (ray.sample(rng_r).value > 10.0) ++ray_deep;
  }
  EXPECT_NEAR(nak_deep / static_cast<double>(n), ray_deep / static_cast<double>(n), 0.01);
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
    [[nodiscard]] double sample_gain(Rng& rng) const override {
      return gain_from_uniform(rng.unit_open());
    }
    [[nodiscard]] double mean_power_gain() const override { return 1.0; }
    [[nodiscard]] bool supports_uniform_skip() const override { return true; }
    [[nodiscard]] double gain_from_uniform(double u) const override {
      return std::sqrt(-std::log(u)) * 1.5;
    }
  };
  expect_batched_gains_bitwise_equal(ScalarOnly{});
}

}  // namespace
