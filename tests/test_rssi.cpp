// Tests for RSSI ranging and its analytic error model (src/phy/rssi.hpp),
// i.e. the paper's equations (6), (11) and (12).
#include "phy/rssi.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "phy/pathloss.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly::phy;
using firefly::util::Dbm;
using firefly::util::Rng;

TEST(RssiRanging, ExactWithoutShadowing) {
  PaperDualSlope model;
  const RssiRanging ranging(&model, Dbm{23.0});
  for (const double d : {1.0, 3.0, 10.0, 50.0, 89.0}) {
    const Dbm rx = Dbm{23.0} - model.loss(d);
    EXPECT_NEAR(ranging.estimate_distance(rx), d, 1e-9) << "d=" << d;
  }
}

TEST(RangingDistortion, EquationElevenFactor) {
  // r* = r · 10^(x / 10n).
  EXPECT_DOUBLE_EQ(ranging_distortion(0.0, 4.0), 1.0);
  EXPECT_NEAR(ranging_distortion(10.0, 4.0), std::pow(10.0, 0.25), 1e-12);
  EXPECT_NEAR(ranging_distortion(-10.0, 4.0), std::pow(10.0, -0.25), 1e-12);
  // Indoor exponent (n = 2) doubles the exponent's magnitude vs n = 4.
  EXPECT_GT(ranging_distortion(10.0, 2.0), ranging_distortion(10.0, 4.0));
}

TEST(AnalyticError, ZeroShadowingIsExact) {
  const RangingErrorStats stats = analytic_ranging_error(0.0, 4.0);
  EXPECT_DOUBLE_EQ(stats.mean_ratio, 1.0);
  EXPECT_DOUBLE_EQ(stats.stddev_ratio, 0.0);
  EXPECT_DOUBLE_EQ(stats.median_ratio, 1.0);
  EXPECT_DOUBLE_EQ(stats.p90_ratio, 1.0);
}

struct ErrorCase {
  double sigma_db;
  double exponent;
};

class AnalyticVsMonteCarlo : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(AnalyticVsMonteCarlo, MomentsMatchSimulation) {
  const auto [sigma, n] = GetParam();
  const RangingErrorStats stats = analytic_ranging_error(sigma, n);

  Rng rng(1234);
  const int samples = 400000;
  double sum = 0.0, sum2 = 0.0;
  int above_p90 = 0;
  for (int i = 0; i < samples; ++i) {
    const double ratio = ranging_distortion(rng.normal(0.0, sigma), n);
    sum += ratio;
    sum2 += ratio * ratio;
    if (ratio > stats.p90_ratio) ++above_p90;
  }
  const double mean = sum / samples;
  const double var = sum2 / samples - mean * mean;
  EXPECT_NEAR(mean, stats.mean_ratio, 0.02 * stats.mean_ratio) << "sigma=" << sigma;
  EXPECT_NEAR(std::sqrt(var), stats.stddev_ratio, 0.05 * stats.stddev_ratio + 0.01);
  EXPECT_NEAR(above_p90 / static_cast<double>(samples), 0.10, 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    SweepSigmaAndExponent, AnalyticVsMonteCarlo,
    ::testing::Values(ErrorCase{2.0, 4.0}, ErrorCase{6.0, 4.0}, ErrorCase{10.0, 4.0},
                      ErrorCase{10.0, 2.0}, ErrorCase{12.0, 3.0}));

TEST(AnalyticError, MedianUnbiasedButMeanBiasedUp) {
  // The log-normal distortion has median 1 but mean > 1: RSSI ranging
  // overestimates distance on average, the asymmetry the paper's ε ∈
  // [−1, +∞] interval reflects.
  const RangingErrorStats stats = analytic_ranging_error(10.0, 4.0);
  EXPECT_DOUBLE_EQ(stats.median_ratio, 1.0);
  EXPECT_GT(stats.mean_ratio, 1.0);
  EXPECT_GT(stats.p90_ratio, 1.0);
}

TEST(AnalyticError, HigherExponentShrinksError) {
  // eq. (12): error scales with 1/n — outdoor (n = 4) ranging is more
  // accurate than indoor (n = 2) at equal shadowing.
  const auto outdoor = analytic_ranging_error(10.0, 4.0);
  const auto indoor = analytic_ranging_error(10.0, 2.0);
  EXPECT_LT(outdoor.stddev_ratio, indoor.stddev_ratio);
  EXPECT_LT(outdoor.p90_ratio, indoor.p90_ratio);
}

TEST(RssiRanging, EndToEndWithShadowedChannel) {
  // Ranging through the dual-slope model with a known shadowing draw
  // reproduces eq. (11)'s multiplicative distortion in the far field.
  PaperDualSlope model;
  const RssiRanging ranging(&model, Dbm{23.0});
  const double d = 30.0;
  const double shadow_db = 8.0;  // extra loss → overestimate
  const Dbm rx = Dbm{23.0} - model.loss(d) - firefly::util::Db{shadow_db};
  const double estimated = ranging.estimate_distance(rx);
  EXPECT_NEAR(estimated / d, ranging_distortion(shadow_db, 4.0), 1e-9);
}

}  // namespace
