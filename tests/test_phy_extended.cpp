// Tests for the PHY extensions: Rician fading, spatially correlated
// shadowing, and the noise floor in the capture rule.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "mac/radio.hpp"
#include "phy/channel.hpp"
#include "phy/fading.hpp"
#include "phy/shadowing.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace firefly;
using phy::CorrelatedShadowing;
using phy::RicianFading;
using util::Rng;

double empirical_mean_gain(const phy::FadingModel& model, int n, std::uint64_t seed) {
  Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += std::pow(10.0, -model.sample(rng).value / 10.0);
  return sum / n;
}

double empirical_gain_variance(const phy::FadingModel& model, int n, std::uint64_t seed) {
  Rng rng(seed);
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = std::pow(10.0, -model.sample(rng).value / 10.0);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  return sum2 / n - mean * mean;
}

class RicianKTest : public ::testing::TestWithParam<double> {};

TEST_P(RicianKTest, UnitMeanPower) {
  RicianFading model(GetParam());
  EXPECT_NEAR(empirical_mean_gain(model, 150000, 11), 1.0, 0.02) << "K=" << GetParam();
}

TEST_P(RicianKTest, VarianceMatchesTheory) {
  // Rician power gain variance = (2K+1)/(K+1)².
  const double k = GetParam();
  RicianFading model(k);
  const double expected = (2.0 * k + 1.0) / ((k + 1.0) * (k + 1.0));
  EXPECT_NEAR(empirical_gain_variance(model, 150000, 13), expected, 0.08 * expected + 0.01)
      << "K=" << k;
}

INSTANTIATE_TEST_SUITE_P(SweepK, RicianKTest, ::testing::Values(0.0, 1.0, 4.0, 10.0));

TEST(Rician, KZeroMatchesRayleighStatistics) {
  RicianFading rician(0.0);
  phy::RayleighFading rayleigh;
  EXPECT_NEAR(empirical_gain_variance(rician, 200000, 17),
              empirical_gain_variance(rayleigh, 200000, 17), 0.05);
}

TEST(Rician, LargeKApproachesNoFading) {
  RicianFading model(100.0);
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(model.sample(rng).value, 0.0, 3.0);  // within ±3 dB
  }
}

std::vector<geo::Vec2> line_positions() {
  std::vector<geo::Vec2> p;
  for (int i = 0; i < 40; ++i) p.push_back({static_cast<double>(i) * 5.0, 50.0});
  return p;
}

TEST(CorrelatedShadowing, SymmetricAndMemoised) {
  CorrelatedShadowing model(10.0, 20.0, line_positions(), Rng(1));
  const double ab = model.sample(3, 9).value;
  EXPECT_DOUBLE_EQ(model.sample(9, 3).value, ab);
  EXPECT_DOUBLE_EQ(model.sample(3, 9).value, ab);
}

TEST(CorrelatedShadowing, UnitFieldVariance) {
  CorrelatedShadowing model(10.0, 20.0, {}, Rng(2));
  util::Rng probe(3);
  double sum = 0.0, sum2 = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double v = model.field_at({probe.uniform(0.0, 2000.0), probe.uniform(0.0, 2000.0)});
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n - mean * mean, 1.0, 0.06);
}

TEST(CorrelatedShadowing, LinkVarianceIsSigmaSquared) {
  // Sample many independent *fields* at one link and check the variance.
  const auto positions = line_positions();
  double sum = 0.0, sum2 = 0.0;
  const int fields = 4000;
  for (int f = 0; f < fields; ++f) {
    CorrelatedShadowing model(10.0, 20.0, positions, Rng(100 + f));
    const double v = model.sample(0, 1).value;
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / fields;
  EXPECT_NEAR(mean, 0.0, 0.6);
  EXPECT_NEAR(sum2 / fields - mean * mean, 100.0, 10.0);
}

TEST(CorrelatedShadowing, NearbyLinksCorrelateFarLinksDoNot) {
  // Correlation across many field realisations between link (0,1) and a
  // link with a nearby midpoint vs one far away.
  const auto positions = line_positions();  // x = 0,5,10,...,195
  std::vector<double> base, near_link, far_link;
  for (int f = 0; f < 1500; ++f) {
    CorrelatedShadowing model(8.0, 25.0, positions, Rng(500 + f));
    base.push_back(model.sample(0, 1).value);       // midpoint x=2.5
    near_link.push_back(model.sample(1, 2).value);  // midpoint x=7.5
    far_link.push_back(model.sample(30, 31).value); // midpoint x=152.5
  }
  const double near_corr = util::pearson(base, near_link);
  const double far_corr = util::pearson(base, far_link);
  EXPECT_GT(near_corr, 0.5);
  EXPECT_LT(std::fabs(far_corr), 0.2);
  EXPECT_GT(near_corr, far_corr);
}

TEST(NoiseFloor, DefaultSitsBelowDetectionThreshold) {
  const phy::RadioParams params;
  EXPECT_LT(params.noise_floor.value, params.detection_threshold.value);
  EXPECT_NEAR(params.detection_threshold.value - params.noise_floor.value, 9.0, 1e-9);
}

TEST(NoiseFloor, NoiseBreaksMarginalCapture) {
  // Geometry built so the wanted signal arrives at −60 dBm and the
  // same-preamble interferer at −64 dBm: 4 dB of SIR, just above the 3 dB
  // capture margin.  With a negligible noise floor the capture succeeds;
  // raising the noise floor to the interferer's level (−64 dBm) turns the
  // denominator into −61 dBm, SINR drops to 1 dB, and the capture fails.
  auto run_with_noise = [](double noise_dbm) {
    sim::Simulator sim;
    phy::RadioParams params;
    params.noise_floor = util::Dbm{noise_dbm};
    auto channel = std::make_unique<phy::Channel>(
        params, std::make_unique<phy::PaperDualSlope>(),
        std::make_unique<phy::NoShadowing>(), std::make_unique<phy::NoFading>(),
        Rng(1));
    mac::RadioMedium radio(&sim, channel.get(), 3.0);
    int heard = 0;
    // PL(d)=83 dB -> d=10^(43/40)≈11.885 m: rx = 23−83 = −60 dBm.
    radio.add_device(0, {10.0 + 11.885, 0.0});
    // PL(d)=87 dB -> d≈14.962 m on the other side: rx = −64 dBm.
    radio.add_device(1, {10.0 - 14.962, 0.0});
    radio.set_delivery_sink([&](const mac::RxBatch& batch) {
      for (std::size_t k = 0; k < batch.count; ++k) {
        if (batch.records[k].rx_index == 2 && batch.records[k].sender == 0) ++heard;
      }
    });
    radio.add_device(2, {10.0, 0.0});
    radio.rebuild();
    sim.schedule_at(sim::SimTime::zero(), [&] {
      radio.broadcast(0, {mac::RachCodec::kRach1, 9}, mac::PsType::kSyncPulse, 0);
      radio.broadcast(1, {mac::RachCodec::kRach1, 9}, mac::PsType::kSyncPulse, 0);
    });
    sim.run();
    return heard;
  };
  EXPECT_EQ(run_with_noise(-200.0), 1);  // quiet: capture succeeds
  EXPECT_EQ(run_with_noise(-64.0), 0);   // noisy: capture fails
}

}  // namespace
