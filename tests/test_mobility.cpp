// Tests for the random-waypoint mobility model (src/geo/mobility.hpp).
#include "geo/mobility.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_worlds.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly::geo;
using firefly::util::Rng;

TEST(RandomWaypoint, StaysInsideArea) {
  const Area area{50.0, 50.0};
  Rng rng(5);
  RandomWaypoint model({25.0, 25.0}, area, 2.0, 0.5, &rng);
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p = model.advance(0.1);
    ASSERT_TRUE(in_area(area, p)) << p.x << "," << p.y;
  }
}

TEST(RandomWaypoint, RespectsSpeedLimit) {
  const Area area{100.0, 100.0};
  Rng rng(6);
  RandomWaypoint model({0.0, 0.0}, area, 3.0, 0.0, &rng);
  Vec2 prev{0.0, 0.0};
  for (int i = 0; i < 500; ++i) {
    const Vec2 next = model.advance(0.25);
    EXPECT_LE(distance(prev, next), 3.0 * 0.25 + 1e-9);
    prev = next;
  }
}

TEST(RandomWaypoint, PausesAtWaypoints) {
  const Area area{10.0, 10.0};
  Rng rng(7);
  RandomWaypoint model({5.0, 5.0}, area, 100.0, 10.0, &rng);
  // With speed 100 m/s in a 10 m box, the model reaches the first waypoint
  // almost immediately and then sits in the pause for ~10 s.
  const Vec2 at_pause = model.advance(1.0);
  const Vec2 later = model.advance(5.0);
  EXPECT_EQ(at_pause, later);
}

TEST(RandomWaypoint, EventuallyMoves) {
  const Area area{100.0, 100.0};
  Rng rng(8);
  RandomWaypoint model({50.0, 50.0}, area, 1.5, 0.0, &rng);
  const Vec2 start{50.0, 50.0};
  EXPECT_GT(distance(start, model.advance(10.0)), 0.0);
}

}  // namespace
