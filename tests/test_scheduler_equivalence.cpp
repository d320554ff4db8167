// Scheduler equivalence: the slot calendar is the simulator's only
// scheduler, and its results must equal those of the binary-heap reference
// leg it replaced.  The heap leg is gone; what it proved is kept as data.
// Each digest below is FNV-1a-64 of the serialised RunMetrics
// (core::write_run_metrics_json, shortest-round-trip doubles) and was
// recorded while both schedulers, both device cores and both spatial
// indexes still existed, after checking that all eight legs produced the
// same JSON.  The wider backend × scenario matrix is in
// test_golden_digests.cpp; the candidate cache the spatial index built is
// checked against an exhaustive scan in test_candidate_cache.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/scenario.hpp"
#include "test_worlds.hpp"

namespace {

using namespace firefly;

/// Run `config` and expect its record to match the recorded digest.
void expect_recorded(core::Protocol protocol, const core::ScenarioConfig& config,
                     std::uint64_t digest) {
  const core::RunMetrics metrics = core::run_trial(protocol, config);
  const std::string json = metrics_json(metrics);
  EXPECT_EQ(core::fnv1a64(json), digest) << "recorded digest not reproduced; got\n" << json;
  // Guard against a vacuous pass: the scenario must actually do something.
  EXPECT_TRUE(metrics.converged);
  EXPECT_GT(metrics.deliveries, 0U);
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
  // scenario produced one record.  The heap and dense columns survive as
  // the digest.
  core::ScenarioConfig config;
  config.n = 100;
  config.seed = 31337;
  expect_recorded(core::Protocol::kSt, config, 0xc126654015f5891cULL);
}

}  // namespace
