// Grid-vs-dense equivalence: the spatial-index fast path must be a pure
// optimisation.  Every scenario here runs twice — SpatialIndex::kGrid and
// SpatialIndex::kDense — and asserts the full RunMetrics records are
// bit-identical (compared through the deterministic JSON serializer, which
// renders doubles with shortest-round-trip formatting, so any ULP of
// divergence fails).  Also covers the memoised channel queries and the
// grid-accelerated proximity_graph builder.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "graph/graph.hpp"
#include "mac/radio.hpp"
#include "obs/json.hpp"
#include "phy/channel.hpp"

namespace {

using namespace firefly;

std::string metrics_json(const core::RunMetrics& metrics) {
  std::ostringstream oss;
  obs::JsonWriter w(oss);
  core::write_run_metrics_json(w, metrics);
  return oss.str();
}

core::RunMetrics run_with(core::Protocol protocol, core::ScenarioConfig config,
                          phy::SpatialIndex index) {
  config.radio.spatial_index = index;
  return core::run_trial(protocol, config);
}

void expect_bit_identical(core::Protocol protocol, const core::ScenarioConfig& config) {
  const core::RunMetrics grid = run_with(protocol, config, phy::SpatialIndex::kGrid);
  const core::RunMetrics dense = run_with(protocol, config, phy::SpatialIndex::kDense);
  EXPECT_EQ(metrics_json(grid), metrics_json(dense));
}

TEST(SpatialEquivalence, StStaticRunIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 120;
  config.seed = 7001;
  const core::RunMetrics grid = run_with(core::Protocol::kSt, config, phy::SpatialIndex::kGrid);
  const core::RunMetrics dense =
      run_with(core::Protocol::kSt, config, phy::SpatialIndex::kDense);
  EXPECT_EQ(metrics_json(grid), metrics_json(dense));
  // Guard against a vacuous pass: the scenario must actually do something.
  EXPECT_TRUE(grid.converged);
  EXPECT_GT(grid.deliveries, 0U);
}

TEST(SpatialEquivalence, StSecondSeedIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 80;
  config.seed = 42;
  expect_bit_identical(core::Protocol::kSt, config);
}

TEST(SpatialEquivalence, FstStaticRunIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7002;
  expect_bit_identical(core::Protocol::kFst, config);
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
  expect_bit_identical(core::Protocol::kSt, config);
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
  expect_bit_identical(core::Protocol::kSt, config);
}

TEST(SpatialEquivalence, DesyncStaticRunIsBitIdentical) {
  // The DESYNC backend consumes the same delivery stream; the spatial
  // index must not change which pulses seed its phase-neighbour memory.
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7005;
  const core::RunMetrics grid =
      run_with(core::Protocol::kDesync, config, phy::SpatialIndex::kGrid);
  const core::RunMetrics dense =
      run_with(core::Protocol::kDesync, config, phy::SpatialIndex::kDense);
  EXPECT_EQ(metrics_json(grid), metrics_json(dense));
  EXPECT_TRUE(grid.converged);
  EXPECT_GT(grid.deliveries, 0U);
}

TEST(SpatialEquivalence, MemoisedCandidateMeansMatchDirectChannelQueries) {
  // The candidate cache stores slot-averaged powers computed through the
  // cache-free bulk path; the protocols later query the memoised per-link
  // path.  Both must return the exact same dBm for every candidate pair.
  const core::ScenarioConfig config{.n = 150, .seed = 9001};
  const std::vector<geo::Vec2> positions = core::deploy(config);
  auto channel = phy::make_paper_channel(config.seed);

  sim::Simulator sim;
  mac::RadioMedium radio(&sim, channel.get(), channel->params().capture_margin_db);
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

TEST(SpatialEquivalence, ProximityGraphMatchesDenseReference) {
  const core::ScenarioConfig config{.n = 200, .seed = 9002};
  const std::vector<geo::Vec2> positions = core::deploy(config);

  auto channel = phy::make_paper_channel(config.seed);
  const graph::Graph via_grid = core::proximity_graph(positions, *channel);

  // Inline dense reference, same admission rule and edge order.
  auto reference_channel = phy::make_paper_channel(config.seed);
  graph::Graph dense(positions.size());
  for (std::uint32_t u = 0; u < positions.size(); ++u) {
    for (std::uint32_t v = u + 1; v < positions.size(); ++v) {
      const util::Dbm forward =
          reference_channel->mean_received_power_uncached(u, positions[u], v, positions[v]);
      const util::Dbm backward =
          reference_channel->mean_received_power_uncached(v, positions[v], u, positions[u]);
      const util::Dbm strongest = std::max(forward, backward);
      if (reference_channel->detectable(strongest)) dense.add_edge(u, v, strongest.value);
    }
  }

  ASSERT_EQ(via_grid.edge_count(), dense.edge_count());
  EXPECT_EQ(via_grid.edges(), dense.edges());
  EXPECT_GT(dense.edge_count(), 0U);
}

}  // namespace
