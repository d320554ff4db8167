// Tests for the composed channel (src/phy/channel.hpp).
#include "phy/channel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "test_worlds.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly::phy;
using firefly::geo::Vec2;
using firefly::util::Dbm;
using firefly::util::Rng;

/// The gain of the channel's next fast fade: one uniform through the model.
double next_fading_gain(Channel& channel) {
  double u = 0.0;
  channel.fill_fading_uniforms(&u, 1);
  return channel.fading().gain_from_uniform(u);
}

std::unique_ptr<Channel> deterministic_channel(RadioParams params = {}) {
  return std::make_unique<Channel>(params, std::make_unique<PaperDualSlope>(),
                                   std::make_unique<NoShadowing>(),
                                   std::make_unique<NoFading>(), Rng(1));
}

TEST(Channel, DeterministicCompositionMatchesFormula) {
  auto channel = deterministic_channel();
  const Vec2 a{0.0, 0.0};
  const Vec2 b{10.0, 0.0};
  // 23 dBm - (40 + 40·log10(10)) = 23 - 80 = -57 dBm.
  EXPECT_NEAR(channel->mean_received_power(0, a, 1, b).value, -57.0, 1e-9);
  EXPECT_EQ(next_fading_gain(*channel), 1.0);  // and no fast fading on top
}

TEST(Channel, DetectableAgainstTableThreshold) {
  auto channel = deterministic_channel();
  EXPECT_TRUE(channel->detectable(Dbm{-95.0}));
  EXPECT_TRUE(channel->detectable(Dbm{-60.0}));
  EXPECT_FALSE(channel->detectable(Dbm{-95.1}));
}

TEST(Channel, MedianRangeMatchesLinkBudget) {
  auto channel = deterministic_channel();
  // Budget 118 dB on the dual-slope far field: 10^((118-40)/40) ≈ 89.1 m.
  EXPECT_NEAR(channel->median_range(), std::pow(10.0, 78.0 / 40.0), 1e-6);
}

TEST(Channel, ShadowingShiftsMeanPower) {
  RadioParams params;
  auto channel = std::make_unique<Channel>(
      params, std::make_unique<PaperDualSlope>(),
      std::make_unique<PerLinkShadowing>(10.0, firefly::util::Xoshiro256ss(7).next()), std::make_unique<NoFading>(),
      Rng(2));
  const Vec2 a{0.0, 0.0};
  const Vec2 b{10.0, 0.0};
  const double with_shadow = channel->mean_received_power(0, a, 1, b).value;
  // Same link shadowing is frozen: repeatable.
  EXPECT_DOUBLE_EQ(channel->mean_received_power(0, a, 1, b).value, with_shadow);
  // Symmetric.
  EXPECT_DOUBLE_EQ(channel->mean_received_power(1, b, 0, a).value, with_shadow);
  // And almost surely different from the unshadowed value.
  EXPECT_NE(with_shadow, -57.0);
}

TEST(Channel, FadingVariesPerReception) {
  RadioParams params;
  auto channel = std::make_unique<Channel>(
      params, std::make_unique<PaperDualSlope>(), std::make_unique<NoShadowing>(),
      std::make_unique<RayleighFading>(), Rng(3));
  const Vec2 a{0.0, 0.0};
  const Vec2 b{10.0, 0.0};
  const double p1 = next_fading_gain(*channel);
  const double p2 = next_fading_gain(*channel);
  EXPECT_NE(p1, p2);
  // Mean power is unaffected by fading.
  EXPECT_NEAR(channel->mean_received_power(0, a, 1, b).value, -57.0, 1e-9);
}

TEST(Channel, PaperFactoryIsReproducible) {
  auto c1 = make_paper_channel(99);
  auto c2 = make_paper_channel(99);
  const Vec2 a{0.0, 0.0};
  const Vec2 b{25.0, 10.0};
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(c1->mean_received_power(0, a, 1, b).value,
                     c2->mean_received_power(0, a, 1, b).value);
    EXPECT_DOUBLE_EQ(next_fading_gain(*c1), next_fading_gain(*c2));
  }
}

TEST(Channel, FadingUniformsAreOneStepEach) {
  // For every model, a block of fading uniforms is one unit_open() step per
  // reception of the channel's stream, and each gain is the model's
  // transform of its step.
  std::vector<std::unique_ptr<FadingModel>> models;
  models.push_back(std::make_unique<RayleighFading>());
  models.push_back(std::make_unique<NoFading>());
  for (std::unique_ptr<FadingModel>& model : models) {
    const FadingModel& fading = *model;
    Channel channel(RadioParams{}, std::make_unique<PaperDualSlope>(),
                    std::make_unique<NoShadowing>(), std::move(model), Rng(5));
    Rng clone = channel.fading_rng();
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{300}}) {
      std::vector<double> u(n);
      channel.fill_fading_uniforms(u.data(), n);
      std::vector<double> gains(n);
      fading.gains_from_uniforms(u.data(), n, gains.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double step = clone.unit_open();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(u[i]), std::bit_cast<std::uint64_t>(step));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(gains[i]),
                  std::bit_cast<std::uint64_t>(fading.gain_from_uniform(step)));
      }
    }
    EXPECT_EQ(channel.fading_rng().uniform(), clone.uniform());
  }
}

TEST(Channel, DropFusedSurvivorsEqualTheTwoPassPath) {
  // The radio's unfaded sweep draws a sender's drops and fades in one
  // loop.  Against the two passes it replaced — a drop mask from the fault
  // stream, then the fading uniforms filtered by their skip bound and the
  // mask — the survivors, their positions, the fired-drop count and the
  // next draw of both streams must be the same.
  Rng bounds_rng(8);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
    std::vector<std::uint32_t> pos(n);
    for (std::size_t i = 0; i < n; ++i) pos[i] = static_cast<std::uint32_t>(2 * i + i % 3 / 2);
    std::vector<float> skip(2 * n + 1);
    for (float& b : skip) b = static_cast<float>(bounds_rng.uniform());
    for (const bool gated : {false, true}) {
      const auto make = [] {
        return Channel(RadioParams{}, std::make_unique<PaperDualSlope>(),
                       std::make_unique<NoShadowing>(), std::make_unique<RayleighFading>(), Rng(5));
      };
      Channel fused = make();
      Channel two_pass = make();
      Rng fused_drops(41);
      Rng two_pass_drops(41);
      const std::uint32_t* at = gated ? pos.data() : nullptr;

      std::vector<double> kept(n);
      std::vector<std::uint32_t> kept_pos(n);
      std::size_t fired = 0;
      const std::size_t count = fused.fill_fading_survivors(skip.data(), at, n, kept.data(),
                                                            kept_pos.data(), fused_drops, 0.2,
                                                            fired);

      std::vector<std::uint8_t> lost(n);
      two_pass_drops.fill_bernoulli(lost.data(), n, 0.2);
      std::vector<double> u(n);
      two_pass.fill_fading_uniforms(u.data(), n);
      std::size_t want = 0;
      std::size_t want_fired = 0;
      for (std::size_t i = 0; i < n; ++i) {
        want_fired += lost[i];
        const std::uint32_t k = gated ? pos[i] : static_cast<std::uint32_t>(i);
        if (!(u[i] < static_cast<double>(skip[k])) || lost[i] != 0) continue;
        ASSERT_LT(want, count) << "n=" << n << " gated=" << gated;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(kept[want]), std::bit_cast<std::uint64_t>(u[i]));
        EXPECT_EQ(kept_pos[want], k);
        ++want;
      }
      EXPECT_EQ(count, want) << "n=" << n << " gated=" << gated;
      EXPECT_EQ(fired, want_fired) << "n=" << n << " gated=" << gated;
      if (n == 1000) {
        EXPECT_GT(fired, 0U);
        EXPECT_GT(count, 0U);
      }
      EXPECT_EQ(fused.fading_rng().uniform(), two_pass.fading_rng().uniform());
      EXPECT_EQ(fused_drops.uniform(), two_pass_drops.uniform());
    }
  }
}

TEST(Channel, PaperFactorySeedsDiffer) {
  auto c1 = make_paper_channel(1);
  auto c2 = make_paper_channel(2);
  const Vec2 a{0.0, 0.0};
  const Vec2 b{25.0, 10.0};
  EXPECT_NE(c1->mean_received_power(0, a, 1, b).value,
            c2->mean_received_power(0, a, 1, b).value);
}

TEST(Channel, ParamsExposed) {
  RadioParams params;
  params.tx_power = Dbm{20.0};
  auto channel = deterministic_channel(params);
  EXPECT_DOUBLE_EQ(channel->params().tx_power.value, 20.0);
  EXPECT_DOUBLE_EQ(channel->params().detection_threshold.value, -95.0);
}

TEST(Channel, NullModelThrowsInEveryBuild) {
  // A caller's argument, checked in Release too (not an assert).
  const auto make = [](bool pathloss, bool shadowing, bool fading) {
    return Channel(RadioParams{}, pathloss ? std::make_unique<PaperDualSlope>() : nullptr,
                   shadowing ? std::make_unique<NoShadowing>() : nullptr,
                   fading ? std::make_unique<NoFading>() : nullptr, Rng(1));
  };
  EXPECT_THROW(make(false, true, true), std::invalid_argument);
  EXPECT_THROW(make(true, false, true), std::invalid_argument);
  EXPECT_THROW(make(true, true, false), std::invalid_argument);
  EXPECT_NO_THROW(make(true, true, true));
}

}  // namespace
