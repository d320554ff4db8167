// Scheduler equivalence: the slot calendar is the simulator's only
// scheduler, and its results must equal those of the binary-heap reference
// leg it replaced.  The heap leg is gone; what it proved is kept as data.
// Each digest below is FNV-1a-64 of the serialised RunMetrics
// (core::write_run_metrics_json, shortest-round-trip doubles) and was
// recorded while both schedulers, both device cores and both spatial
// indexes still existed, after checking that all eight legs produced the
// same JSON.  The grid/dense axis is still live and is re-checked here.
// The wider backend × scenario matrix is in test_golden_digests.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "obs/json.hpp"
#include "phy/channel.hpp"

namespace {

using namespace firefly;

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string metrics_json(const core::RunMetrics& metrics) {
  std::ostringstream oss;
  obs::JsonWriter w(oss);
  core::write_run_metrics_json(w, metrics);
  return oss.str();
}

/// Run `config` with the grid and the dense spatial index, expect one
/// identical record matching the recorded digest, and return it.
core::RunMetrics expect_recorded(core::Protocol protocol, core::ScenarioConfig config,
                                 std::uint64_t digest) {
  config.radio.spatial_index = phy::SpatialIndex::kGrid;
  const core::RunMetrics grid = core::run_trial(protocol, config);
  config.radio.spatial_index = phy::SpatialIndex::kDense;
  const core::RunMetrics dense = core::run_trial(protocol, config);
  const std::string json = metrics_json(grid);
  EXPECT_EQ(metrics_json(dense), json) << "grid and dense diverged";
  EXPECT_EQ(fnv1a64(json), digest) << "recorded digest not reproduced; got\n" << json;
  // Guard against a vacuous pass: the scenario must actually do something.
  EXPECT_TRUE(grid.converged);
  EXPECT_GT(grid.deliveries, 0U);
  return grid;
}

TEST(SchedulerEquivalence, StStaticRunIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 120;
  config.seed = 7001;
  expect_recorded(core::Protocol::kSt, config, 0xd857c100a9e26d61ULL);
}

TEST(SchedulerEquivalence, StSecondSeedIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 80;
  config.seed = 42;
  expect_recorded(core::Protocol::kSt, config, 0xa545ec34851bf300ULL);
}

TEST(SchedulerEquivalence, AllFourSchedulerSpatialCombinationsMatch) {
  // The former acceptance matrix: {wheel, heap} × {grid, dense} on one
  // scenario produced one record.  The heap column survives as the digest.
  core::ScenarioConfig config;
  config.n = 100;
  config.seed = 31337;
  expect_recorded(core::Protocol::kSt, config, 0xc126654015f5891cULL);
}

}  // namespace
