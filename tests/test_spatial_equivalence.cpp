// Grid-vs-dense equivalence, kept as data: the radio builds its candidate
// cache through a spatial grid and a table-driven loss bound, and whole runs
// must equal those of the exhaustive (dense) candidate scan it replaced.
// Each digest below is FNV-1a-64 of the serialised RunMetrics
// (core::write_run_metrics_json, shortest-round-trip doubles, so any ULP of
// divergence fails), recorded while the radio could still select the dense
// scan, after checking that both produced the same JSON.  The cache itself
// is checked against an exhaustive scan in test_candidate_cache.cpp
// (SpatialEquivalence.CandidateCacheMatchesDense* and CandidateCache.*).  Also
// covers the memoised channel queries.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "mac/radio.hpp"
#include "phy/channel.hpp"
#include "test_worlds.hpp"

namespace {

using namespace firefly;

/// Run `config` and expect its record to match the recorded digest.
core::RunMetrics expect_recorded(core::Protocol protocol, const core::ScenarioConfig& config,
                                 std::uint64_t digest) {
  const core::RunMetrics metrics = core::run_trial(protocol, config);
  const std::string json = metrics_json(metrics);
  EXPECT_EQ(core::fnv1a64(json), digest) << "recorded digest not reproduced; got\n" << json;
  return metrics;
}

TEST(SpatialEquivalence, FstStaticRunIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7002;
  expect_recorded(core::Protocol::kFst, config, 0x7a7c796c2444a297ULL);
}

TEST(SpatialEquivalence, StMobilityRunIsBitIdentical) {
  // Mobility exercises the incremental grid updates plus the shadowing
  // epoch bump on every mobility step.  Run a bounded observation window so
  // devices keep moving after (possible) convergence.
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7003;
  config.protocol.mobility_speed_mps = 1.5;
  config.protocol.stop_on_convergence = false;
  config.protocol.max_periods = 20;
  expect_recorded(core::Protocol::kSt, config, 0x0d44e6254c4391b0ULL);
}

TEST(SpatialEquivalence, StFaultInjectionRunIsBitIdentical) {
  // Faults exercise the delivery sweep's gates (crashed receivers, batched
  // drop draws, fade attenuation) plus churn-driven cache invalidation.
  // Faulted runs go to max_periods; keep it short.
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7004;
  config.protocol.max_periods = 30;
  config.protocol.faults.churn_rate_per_min = 20.0;
  config.protocol.faults.mean_downtime_ms = 1000.0;
  config.protocol.faults.drop_probability = 0.05;
  config.protocol.faults.fade_rate_per_min = 10.0;
  config.protocol.faults.drift_max_ppm = 50.0;
  expect_recorded(core::Protocol::kSt, config, 0xd8bba98e04fe4053ULL);
}

TEST(SpatialEquivalence, DesyncStaticRunIsBitIdentical) {
  // The DESYNC backend consumes the same delivery stream; the spatial
  // index must not change which pulses seed its phase-neighbour memory.
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7005;
  const core::RunMetrics metrics =
      expect_recorded(core::Protocol::kDesync, config, 0x5c42dc285ec40782ULL);
  // Guard against a vacuous pass: the scenario must actually do something.
  EXPECT_TRUE(metrics.converged);
  EXPECT_GT(metrics.deliveries, 0U);
}

TEST(SpatialEquivalence, MemoisedCandidateMeansMatchDirectChannelQueries) {
  // The candidate cache stores slot-averaged powers computed through the
  // cache-free bulk path; the protocols later query the memoised per-link
  // path.  Both must return the exact same dBm for every candidate pair.
  const core::ScenarioConfig config{.n = 150, .seed = 9001};
  const std::vector<geo::Vec2> positions = core::deploy(config);
  auto channel = phy::make_paper_channel(config.seed);

  sim::Simulator sim;
  mac::RadioMedium radio(&sim, channel.get());
  for (std::uint32_t id = 0; id < positions.size(); ++id) {
    radio.add_device(id, positions[id]);
  }
  radio.rebuild();

  std::size_t pairs = 0;
  radio.for_each_candidate_pair([&](std::uint32_t u, std::uint32_t v, util::Dbm mean) {
    const util::Dbm direct =
        channel->mean_received_power(u, positions[u], v, positions[v]);
    EXPECT_EQ(mean.value, direct.value) << "pair (" << u << ", " << v << ")";
    // Symmetric by construction: hypot and the shadow key are symmetric.
    const util::Dbm reverse =
        channel->mean_received_power(v, positions[v], u, positions[u]);
    EXPECT_EQ(direct.value, reverse.value);
    ++pairs;
  });
  EXPECT_GT(pairs, 0U);
}

}  // namespace
