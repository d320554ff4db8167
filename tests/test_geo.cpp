// Tests for geometry and deployments (src/geo/point.hpp, deployment.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geo/deployment.hpp"
#include "geo/point.hpp"
#include "test_worlds.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly::geo;
using firefly::util::Rng;

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 1.0}));
  EXPECT_EQ((a - b), (Vec2{-2.0, 3.0}));
  EXPECT_EQ((2.0 * a), (Vec2{2.0, 4.0}));
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm_squared(), 25.0);
  EXPECT_DOUBLE_EQ(distance(a, b), std::sqrt(4.0 + 9.0));
}

TEST(AreaTest, ContainsAndClamp) {
  const Area area{100.0, 50.0};
  EXPECT_EQ(area.clamp({-5.0, 60.0}), (Vec2{0.0, 50.0}));
  EXPECT_EQ(area.clamp({42.0, 7.0}), (Vec2{42.0, 7.0}));
}

TEST(Deployment, UniformStaysInAreaAndIsDeterministic) {
  const Area area{200.0, 100.0};
  Rng rng1(42), rng2(42);
  const auto a = deploy_uniform(500, area, rng1);
  const auto b = deploy_uniform(500, area, rng2);
  EXPECT_EQ(a.size(), 500U);
  EXPECT_EQ(a, b);
  for (const Vec2& p : a) EXPECT_TRUE(in_area(area, p));
}

TEST(Deployment, UniformCoversTheArea) {
  Rng rng(1);
  const auto points = deploy_uniform(4000, kPaperArea, rng);
  // Quadrant counts should be roughly balanced.
  int q[4] = {0, 0, 0, 0};
  for (const Vec2& p : points) {
    const int idx = (p.x > 50.0 ? 1 : 0) + (p.y > 50.0 ? 2 : 0);
    ++q[idx];
  }
  for (const int c : q) EXPECT_NEAR(c, 1000, 150);
}

TEST(Deployment, ClusteredPointsNearParents) {
  Rng rng(3);
  const auto points = deploy_clustered(300, 3, 2.0, kPaperArea, rng);
  EXPECT_EQ(points.size(), 300U);
  for (const Vec2& p : points) EXPECT_TRUE(in_area(kPaperArea, p));
  // With spread 2 m and 3 clusters, the average nearest-neighbour distance
  // should be far below a uniform deployment's (~5 m for 300 in 1 ha).
  double nn_sum = 0.0;
  for (std::size_t i = 0; i < 50; ++i) {
    double best = 1e18;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i == j) continue;
      best = std::min(best, distance(points[i], points[j]));
    }
    nn_sum += best;
  }
  EXPECT_LT(nn_sum / 50.0, 2.0);
}

TEST(Deployment, ScaledAreaPreservesDensity) {
  for (const std::size_t n : {50UL, 200UL, 800UL}) {
    const Area area = scaled_area_for(n);
    // Table I: 50 devices in 100 m × 100 m.
    EXPECT_NEAR(static_cast<double>(n) / (area.width * area.height), 0.005, 1e-12)
        << "n=" << n;
  }
  // 50 devices keeps the exact paper square.
  const Area base = scaled_area_for(50);
  EXPECT_DOUBLE_EQ(base.width, 100.0);
  EXPECT_DOUBLE_EQ(base.height, 100.0);
}

}  // namespace
