// Unit tests for geo::SpatialGrid: membership bookkeeping, disc queries as
// supersets of the true disc, and incremental cell updates under random and
// random-waypoint movement.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geo/grid.hpp"
#include "geo/mobility.hpp"
#include "geo/point.hpp"
#include "util/rng.hpp"

namespace {

using firefly::geo::Area;
using firefly::geo::RandomWaypoint;
using firefly::geo::SpatialGrid;
using firefly::geo::Vec2;
using firefly::util::Rng;

std::vector<Vec2> random_positions(std::size_t n, double side, Rng& rng) {
  std::vector<Vec2> positions(n);
  for (Vec2& p : positions) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  return positions;
}

/// The ids stored in the cell containing `p`, sorted: a zero-radius
/// gather scans exactly that one cell.
std::vector<std::uint32_t> members_at(const SpatialGrid& grid, Vec2 p) {
  std::vector<std::uint32_t> ids;
  grid.gather(p, 0.0, ids);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool cell_holds(const SpatialGrid& grid, Vec2 p, std::uint32_t id) {
  const auto ids = members_at(grid, p);
  return std::binary_search(ids.begin(), ids.end(), id);
}

/// Every id across all cells (a gather whose square covers the grid), sorted.
std::vector<std::uint32_t> all_members_sorted(const SpatialGrid& grid) {
  std::vector<std::uint32_t> ids;
  grid.gather({0.0, 0.0}, 1e12, ids);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SpatialGrid, BuildAssignsEveryDeviceToItsCell) {
  Rng rng(11);
  const auto positions = random_positions(200, 500.0, rng);
  SpatialGrid grid;
  grid.build(positions, 50.0);

  ASSERT_TRUE(grid.built());
  const auto ids = all_members_sorted(grid);
  ASSERT_EQ(ids.size(), positions.size());
  for (std::uint32_t id = 0; id < ids.size(); ++id) EXPECT_EQ(ids[id], id);

  for (std::uint32_t id = 0; id < positions.size(); ++id) {
    EXPECT_TRUE(cell_holds(grid, positions[id], id))
        << "device " << id << " missing from its own cell";
  }
}

TEST(SpatialGrid, GatherIsASupersetOfTheDisc) {
  Rng rng(12);
  const auto positions = random_positions(300, 400.0, rng);
  SpatialGrid grid;
  grid.build(positions, 60.0);

  for (int trial = 0; trial < 20; ++trial) {
    const Vec2 center{rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)};
    const double radius = rng.uniform(10.0, 150.0);
    std::vector<std::uint32_t> near;
    grid.gather(center, radius, near);
    std::sort(near.begin(), near.end());
    for (std::uint32_t id = 0; id < positions.size(); ++id) {
      if (firefly::geo::distance(positions[id], center) <= radius) {
        EXPECT_TRUE(std::binary_search(near.begin(), near.end(), id))
            << "device " << id << " inside the disc but not gathered";
      }
    }
  }
}

TEST(SpatialGrid, QueryRadiusLargerThanWorldReturnsEveryone) {
  Rng rng(13);
  const auto positions = random_positions(50, 100.0, rng);
  SpatialGrid grid;
  grid.build(positions, 1000.0);  // single cell
  std::vector<std::uint32_t> near;
  grid.gather({50.0, 50.0}, 1000.0, near);
  EXPECT_EQ(near.size(), positions.size());
}

TEST(SpatialGrid, MoveTransfersCellMembership) {
  const std::vector<Vec2> positions{{5.0, 5.0}, {95.0, 95.0}, {5.0, 95.0}};
  SpatialGrid grid;
  grid.build(positions, 10.0);

  ASSERT_NE(grid.cell_index({5.0, 5.0}), grid.cell_index({55.0, 55.0}));

  grid.move(0, {55.0, 55.0});
  EXPECT_FALSE(cell_holds(grid, {5.0, 5.0}, 0));
  EXPECT_TRUE(cell_holds(grid, {55.0, 55.0}, 0));

  // After any move the device is findable via the cell of its new position.
  grid.move(1, {94.0, 94.0});
  EXPECT_TRUE(cell_holds(grid, {94.0, 94.0}, 1));
}

TEST(SpatialGrid, IncrementalMovesMatchARebuiltGrid) {
  // Anchor devices pin the bounding box so a freshly built grid over the
  // moved positions shares the incremental grid's origin and cell layout —
  // otherwise cell indices are not comparable across the two grids.
  Rng rng(14);
  auto positions = random_positions(120, 300.0, rng);
  positions[0] = {0.0, 0.0};
  positions[1] = {300.0, 300.0};
  SpatialGrid incremental;
  incremental.build(positions, 40.0);

  for (int step = 0; step < 400; ++step) {
    const auto id =
        2 + static_cast<std::size_t>(rng.uniform_index(positions.size() - 2));
    positions[id] = {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
    incremental.move(id, positions[id]);
  }

  SpatialGrid rebuilt;
  rebuilt.build(positions, 40.0);
  // Each id is stored once, so comparing the cell of every device's
  // position covers every non-empty cell of both grids.
  EXPECT_EQ(all_members_sorted(incremental), all_members_sorted(rebuilt));
  for (std::size_t id = 0; id < positions.size(); ++id) {
    ASSERT_EQ(incremental.cell_index(positions[id]), rebuilt.cell_index(positions[id]));
    EXPECT_EQ(members_at(incremental, positions[id]), members_at(rebuilt, positions[id]))
        << "the cell of device " << id << " diverged after incremental moves";
  }
}

TEST(SpatialGrid, CellMembershipTracksWaypointMobility) {
  // The engine's mobility step in miniature: random-waypoint movers advance,
  // the grid is updated incrementally, and membership must stay consistent
  // with the true positions — including waypoints outside the initial
  // bounding box being clamped into border cells.
  Rng rng(15);
  const Area area{200.0, 200.0};
  auto positions = random_positions(40, 200.0, rng);
  SpatialGrid grid;
  grid.build(positions, 30.0);

  std::vector<RandomWaypoint> movers;
  movers.reserve(positions.size());
  for (const Vec2 p : positions) movers.emplace_back(p, area, 5.0, 0.5, &rng);

  for (int step = 0; step < 50; ++step) {
    for (std::size_t id = 0; id < movers.size(); ++id) {
      positions[id] = movers[id].advance(1.0);
      grid.move(id, positions[id]);
    }
  }

  const auto ids = all_members_sorted(grid);
  ASSERT_EQ(ids.size(), positions.size());
  for (std::size_t id = 0; id < positions.size(); ++id) {
    EXPECT_TRUE(cell_holds(grid, positions[id], static_cast<std::uint32_t>(id)))
        << "device " << id << " not in the cell of its current position";
  }
}

}  // namespace
