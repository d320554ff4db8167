// Grid-vs-dense equivalence: the spatial-index fast path must be a pure
// optimisation.  Every scenario here runs twice — SpatialIndex::kGrid and
// SpatialIndex::kDense — and asserts the full RunMetrics records are
// bit-identical (compared through the deterministic JSON serializer, which
// renders doubles with shortest-round-trip formatting, so any ULP of
// divergence fails).  Also covers the memoised channel queries and the
// grid-accelerated proximity_graph builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "graph/graph.hpp"
#include "mac/radio.hpp"
#include "obs/json.hpp"
#include "phy/channel.hpp"
#include "util/rng.hpp"

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

/// Grid and dense caches must agree field by field: offsets, receivers and
/// the bits of every mean, mean in mW and skip bound — and pair by pair
/// through `for_each_candidate_pair`.  Returns the number of pairs.
std::size_t expect_same_cache(const mac::RadioMedium& grid, const mac::RadioMedium& dense) {
  const mac::RadioMedium::CandidateView g = grid.candidates();
  const mac::RadioMedium::CandidateView d = dense.candidates();
  EXPECT_TRUE(std::ranges::equal(g.offsets, d.offsets));
  EXPECT_TRUE(std::ranges::equal(g.rx, d.rx));
  const auto bits = [](auto values) {
    std::vector<std::uint64_t> out;
    for (const auto x : values) {
      if constexpr (sizeof(x) == 8) {
        out.push_back(std::bit_cast<std::uint64_t>(x));
      } else {
        out.push_back(std::bit_cast<std::uint32_t>(x));
      }
    }
    return out;
  };
  EXPECT_EQ(bits(g.mean_dbm), bits(d.mean_dbm));
  EXPECT_EQ(bits(g.mean_mw), bits(d.mean_mw));
  EXPECT_EQ(bits(g.skip), bits(d.skip));
  using Pair = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;
  const auto pairs = [](const mac::RadioMedium& radio) {
    std::vector<Pair> out;
    radio.for_each_candidate_pair([&](std::uint32_t u, std::uint32_t v, util::Dbm mean) {
      out.emplace_back(u, v, std::bit_cast<std::uint64_t>(mean.value));
    });
    return out;
  };
  const std::vector<Pair> grid_pairs = pairs(grid);
  EXPECT_EQ(grid_pairs, pairs(dense));
  return grid_pairs.size();
}

/// Builds a grid and a dense radio over `positions`, compares their caches,
/// then takes one mobility step (every device moves up to `step_m` and the
/// shadowing decorrelates, bumping its epoch) and compares again.
void expect_grid_cache_matches_dense(const std::vector<geo::Vec2>& positions,
                                     std::uint64_t seed, double step_m,
                                     double max_admitted_frac) {
  phy::RadioParams dense_params;
  dense_params.spatial_index = phy::SpatialIndex::kDense;
  auto grid_channel = phy::make_paper_channel(seed);
  auto dense_channel = phy::make_paper_channel(seed, dense_params);
  sim::Simulator sim;
  mac::RadioMedium grid(&sim, grid_channel.get());
  mac::RadioMedium dense(&sim, dense_channel.get());
  for (std::uint32_t id = 0; id < positions.size(); ++id) {
    grid.add_device(id, positions[id]);
    dense.add_device(id, positions[id]);
  }
  const double all_pairs = 0.5 * static_cast<double>(positions.size() * (positions.size() - 1));
  grid.rebuild();
  dense.rebuild();
  const std::size_t admitted = expect_same_cache(grid, dense);
  // Not vacuous: a large share of the pairs is sub-cutoff, so the rebuild's
  // reject bound has work to do, and some pairs are admitted.
  EXPECT_GT(admitted, 0U);
  EXPECT_LT(static_cast<double>(admitted), max_admitted_frac * all_pairs);

  util::Rng rng(seed + 1);
  for (std::uint32_t id = 0; id < positions.size(); ++id) {
    const geo::Vec2 to = positions[id] + geo::Vec2{rng.uniform(-step_m, step_m),
                                                   rng.uniform(-step_m, step_m)};
    grid.move_device(id, to);
    dense.move_device(id, to);
  }
  grid_channel->shadowing().invalidate();
  dense_channel->shadowing().invalidate();
  grid.rebuild();
  dense.rebuild();
  EXPECT_GT(expect_same_cache(grid, dense), 0U);
}

TEST(SpatialEquivalence, CandidateCacheMatchesDenseAtPaperDensity) {
  // N = 1000 at the paper's density: the range disc covers the world, the
  // rows run every v > u, and the bound rejects about half the pairs.
  const core::ScenarioConfig config{.n = 1000, .seed = 9003};
  expect_grid_cache_matches_dense(core::deploy(config), config.seed, 5.0, 0.6);
}

TEST(SpatialEquivalence, CandidateCacheMatchesDenseInASparseWorld) {
  // A 5 km square: the range disc does not cover it, so rows are
  // grid-gathered (and the grid follows the mobility step's moves).
  util::Rng rng(9004);
  std::vector<geo::Vec2> positions(300);
  for (geo::Vec2& p : positions) p = {rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0)};
  expect_grid_cache_matches_dense(positions, 9004, 50.0, 0.3);
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
          reference_channel->mean_received_power(u, positions[u], v, positions[v]);
      const util::Dbm backward =
          reference_channel->mean_received_power(v, positions[v], u, positions[u]);
      const util::Dbm strongest = std::max(forward, backward);
      if (reference_channel->detectable(strongest)) dense.add_edge(u, v, strongest.value);
    }
  }

  ASSERT_EQ(via_grid.edge_count(), dense.edge_count());
  EXPECT_EQ(via_grid.edges(), dense.edges());
  EXPECT_GT(dense.edge_count(), 0U);
}

}  // namespace
