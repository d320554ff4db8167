// Differential tests for the candidate rebuild's reject bound: the
// path-loss models must be monotone in distance, the tabulated path-loss
// floor (mac::PathLossFloor) must stay below the exact loss of every pair,
// and each shadowing model's `loss_lower_bound` must stay below its
// `sample` — on seeded random inputs and on inputs built to sit on bucket
// edges and the dual-slope breakpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "geo/point.hpp"
#include "mac/radio.hpp"
#include "phy/channel.hpp"
#include "phy/pathloss.hpp"
#include "phy/shadowing.hpp"
#include "test_worlds.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;
using phy::PerLinkShadowing;

/// Log-distance path loss (the paper's eq. 7): 40 dB at 1 m plus 10·n dB
/// per decade.  A second monotone shape for the floor, beside Table I's.
class LogDistance final : public phy::PathLossModel {
 public:
  explicit LogDistance(double exponent) : exponent_(exponent) {}
  [[nodiscard]] util::Db loss(double distance_m) const override {
    return util::Db{40.0 + 10.0 * exponent_ * std::log10(std::max(distance_m, min_distance()))};
  }
  [[nodiscard]] double distance_for_loss(util::Db loss) const override {
    return std::pow(10.0, (loss.value - 40.0) / (10.0 * exponent_));
  }

 private:
  double exponent_;
};

std::vector<std::unique_ptr<phy::PathLossModel>> all_models() {
  std::vector<std::unique_ptr<phy::PathLossModel>> models;
  models.push_back(std::make_unique<phy::PaperDualSlope>());
  models.push_back(std::make_unique<LogDistance>(4.0));
  models.push_back(std::make_unique<LogDistance>(2.0));
  return models;
}

/// An unbounded shadowing model (no `max_gain_db`), so it keeps the
/// interface's default bounds; its draw depends on the receiver only.
class Unbounded final : public phy::ShadowingModel {
 public:
  [[nodiscard]] util::Db sample(std::uint32_t /*a*/, std::uint32_t b) const override {
    return util::Db{0.25 * static_cast<double>(b) - 40.0};
  }
};

/// Distances at which a model's regime or clamp changes, ± 1 ulp.
std::vector<double> edge_distances(const phy::PathLossModel& model) {
  std::vector<double> d = {0.0, 2000.0};
  for (const double x : {model.min_distance(), phy::PaperDualSlope::kBreakpoint}) {
    d.push_back(std::nextafter(x, 0.0));
    d.push_back(x);
    d.push_back(std::nextafter(x, 1e9));
  }
  return d;
}

TEST(RebuildBound, PathLossModelsAreNonDecreasing) {
  util::Rng rng(11);
  const auto models = all_models();
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto& model = models[m];
    std::vector<double> d = edge_distances(*model);
    for (int i = 0; i < 20000; ++i) d.push_back(rng.uniform(0.0, 2000.0));
    for (int i = 0; i < 20000; ++i) d.push_back(std::pow(10.0, rng.uniform(-2.0, 1.5)));
    std::sort(d.begin(), d.end());
    for (std::size_t i = 1; i < d.size(); ++i) {
      ASSERT_LE(model->loss(d[i - 1]).value, model->loss(d[i]).value)
          << "model " << m << " between " << d[i - 1] << " and " << d[i] << " m";
    }
  }
}

TEST(RebuildBound, PathLossFloorStaysBelowTheExactLoss) {
  util::Rng rng(12);
  const double side = 632.0;
  const double max_d2 = 2.0 * side * side;
  const auto models = all_models();
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto& model = models[m];
    mac::PathLossFloor floor;
    ASSERT_TRUE(floor.build(*model, max_d2));
    const auto check = [&](geo::Vec2 a, geo::Vec2 b) {
      const double dx = a.x - b.x;
      const double dy = a.y - b.y;
      const double exact = model->loss(geo::distance(a, b)).value;
      EXPECT_LE(floor.lower_bound(dx * dx + dy * dy), exact)
          << "model " << m << " at " << geo::distance(a, b) << " m";
      return exact - floor.lower_bound(dx * dx + dy * dy);
    };
    double far_gap = 0.0;
    for (int i = 0; i < 200000; ++i) {
      const geo::Vec2 a{rng.uniform(0.0, side), rng.uniform(0.0, side)};
      const geo::Vec2 b{rng.uniform(0.0, side), rng.uniform(0.0, side)};
      const double gap = check(a, b);
      if (geo::distance(a, b) > 200.0) far_gap = std::max(far_gap, gap);
    }
    // Pairs on (and one ulp around) every bucket's lower edge, along both
    // axes and the diagonal, and across the model's edge distances.
    const double width = max_d2 / static_cast<double>(mac::PathLossFloor::kBuckets);
    for (std::size_t b = 0; b <= mac::PathLossFloor::kBuckets; ++b) {
      const double edge = std::sqrt(static_cast<double>(b) * width);
      for (const double d : {std::nextafter(edge, 0.0), edge, std::nextafter(edge, 1e9)}) {
        check({0.0, 0.0}, {d, 0.0});
        check({side, side}, {side, side - d});
        check({0.0, 0.0}, {d / std::sqrt(2.0), d / std::sqrt(2.0)});
      }
    }
    for (const double d : edge_distances(*model)) check({1.0, 1.0}, {1.0 + d, 1.0});
    check({0.0, 0.0}, {side, side});
    // Not vacuous: far from the first bucket the floor is tight.
    EXPECT_LT(far_gap, 0.5) << "model " << m;
  }
}

TEST(RebuildBound, PathLossFloorRefusesDegenerateWorlds) {
  const phy::PaperDualSlope model;
  mac::PathLossFloor floor;
  EXPECT_FALSE(floor.build(model, 0.0));
  EXPECT_FALSE(floor.build(model, std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(floor.build(model, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(floor.build(model, 1e-320));  // bucket width not representable
  // A refused table bounds nothing, whatever the pair's d².
  for (const double d2 : {0.0, 1e6, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(floor.lower_bound(d2), -std::numeric_limits<double>::infinity()) << d2;
  }
  EXPECT_TRUE(floor.build(model, 1.0));
  EXPECT_GT(floor.lower_bound(1.0), -std::numeric_limits<double>::infinity());
}

TEST(RebuildBound, ShadowingBoundStaysBelowRandomDraws) {
  PerLinkShadowing model(10.0, std::uint64_t{0x5eed});
  util::Xoshiro256ss rng(13);
  double gap_sum = 0.0;
  std::size_t draws = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    std::size_t violations = 0;
    for (int i = 0; i < 1000000; ++i) {
      const auto a = static_cast<std::uint32_t>(rng.next());
      const auto b = static_cast<std::uint32_t>(rng.next());
      const double sample = model.sample(a, b).value;
      const double bound = model.loss_lower_bound(a, b);
      violations += static_cast<std::size_t>(!(bound <= sample));
      gap_sum += sample - bound;
      ++draws;
    }
    EXPECT_EQ(violations, 0U) << "epoch " << epoch;
    model.invalidate();  // the bound must follow the epoch bump
  }
  // Not vacuous: the bound sits a fraction of σ below the draw on average.
  EXPECT_LT(gap_sum / static_cast<double>(draws), 1.0);
}

TEST(RebuildBound, ShadowingBoundHoldsOnForcedEdgeBuckets) {
  // Words whose top bits pick u1 bucket 0 (the unbounded tail of r) and
  // the edges of every u2 bucket where cos(2πu2) crosses 0 or turns
  // (u2 = 0.25, 0.5, 0.75), ± 1 bucket, with extreme and random low bits.
  constexpr int kShift = 64 - PerLinkShadowing::kBoundBits;
  constexpr std::uint64_t kLow = (std::uint64_t{1} << kShift) - 1;
  util::Xoshiro256ss rng(14);
  std::vector<std::uint64_t> w1s;
  std::vector<std::uint64_t> w2s;
  for (const std::uint64_t bucket : {0, 1, 511, 512, 1022, 1023}) {
    const std::uint64_t top = bucket << kShift;
    for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{1} << 11, kLow,
                                    rng.next() & kLow, rng.next() & kLow}) {
      w1s.push_back(top | low);
    }
  }
  for (const std::uint64_t centre : {256, 512, 768, 0, 1023}) {
    for (const std::uint64_t bucket : {centre - 1, centre, centre + 1}) {
      if (bucket >= (std::uint64_t{1} << PerLinkShadowing::kBoundBits)) continue;
      const std::uint64_t top = bucket << kShift;
      for (const std::uint64_t low : {std::uint64_t{0}, kLow, rng.next() & kLow}) {
        w2s.push_back(top | low);
      }
    }
  }
  for (const std::uint64_t w1 : w1s) {
    for (const std::uint64_t w2 : w2s) {
      EXPECT_LE(PerLinkShadowing::unit_normal_lower_bound(w1, w2),
                PerLinkShadowing::unit_normal(w1, w2))
          << std::hex << "w1 " << w1 << " w2 " << w2;
    }
  }
}

TEST(RebuildBound, DefaultBoundsAreExactOrNeverReject) {
  const phy::NoShadowing none;
  EXPECT_EQ(none.loss_lower_bound(1, 2), 0.0);
  EXPECT_EQ(none.loss_lower_bound(1, 2), none.sample(1, 2).value);
  const Unbounded unbounded;
  EXPECT_EQ(unbounded.loss_lower_bound(1, 2), -std::numeric_limits<double>::infinity());
  // A negative σ flips the draw; its bound must refuse to reject.
  const PerLinkShadowing flipped(-10.0, std::uint64_t{17});
  EXPECT_EQ(flipped.loss_lower_bound(1, 2), -std::numeric_limits<double>::infinity());
}

TEST(RebuildBound, BatchedCallsMatchTheScalarOnes) {
  const PerLinkShadowing model(10.0, std::uint64_t{18});
  const Unbounded unbounded;  // the interface's default batched loops
  std::vector<std::uint32_t> rx(300);
  for (std::uint32_t k = 0; k < rx.size(); ++k) rx[k] = 3 * k + 1;
  std::vector<double> bounds(rx.size());
  std::vector<double> samples(rx.size());
  std::vector<double> default_bounds(rx.size());
  std::vector<double> default_samples(rx.size());
  model.loss_lower_bounds(7, rx.data(), rx.size(), bounds.data());
  model.samples(7, rx.data(), rx.size(), samples.data());
  unbounded.loss_lower_bounds(7, rx.data(), rx.size(), default_bounds.data());
  unbounded.samples(7, rx.data(), rx.size(), default_samples.data());
  for (std::size_t k = 0; k < rx.size(); ++k) {
    EXPECT_EQ(bounds[k], model.loss_lower_bound(7, rx[k]));
    EXPECT_EQ(samples[k], model.sample(7, rx[k]).value);
    EXPECT_EQ(default_bounds[k], unbounded.loss_lower_bound(7, rx[k]));
    EXPECT_EQ(default_samples[k], unbounded.sample(7, rx[k]).value);
  }

  // The channel's batched mean equals the scalar one bit for bit.
  auto channel = phy::make_paper_channel(20);
  util::Rng rng(21);
  std::vector<geo::Vec2> pos(rx.size());
  for (geo::Vec2& p : pos) p = {rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)};
  const geo::Vec2 tx{300.0, 300.0};
  std::vector<double> means(rx.size());
  channel->mean_received_powers(7, tx, rx.data(), pos.data(), rx.size(), means.data());
  for (std::size_t k = 0; k < rx.size(); ++k) {
    EXPECT_EQ(means[k], channel->mean_received_power(7, tx, rx[k], pos[k]).value);
  }
}

}  // namespace
