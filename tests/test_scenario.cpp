// Tests for scenario construction (src/core/scenario.hpp).
#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/mst.hpp"
#include "phy/channel.hpp"

namespace {

using namespace firefly;
using core::AreaPolicy;
using core::ScenarioConfig;

TEST(Scenario, DefaultsMatchTableOne) {
  const ScenarioConfig config;
  EXPECT_EQ(config.n, 50U);
  EXPECT_DOUBLE_EQ(config.radio.tx_power.value, 23.0);
  EXPECT_DOUBLE_EQ(config.radio.detection_threshold.value, -95.0);
  EXPECT_DOUBLE_EQ(config.radio.shadowing_sigma_db, 10.0);
  EXPECT_EQ(config.protocol.period_slots, 100U);  // 100 × 1 ms slots
}

TEST(Scenario, FixedAreaPolicy) {
  ScenarioConfig config;
  config.area_policy = AreaPolicy::kFixed;
  config.n = 1000;
  EXPECT_DOUBLE_EQ(config.area().width, 100.0);
  EXPECT_DOUBLE_EQ(config.area().height, 100.0);
}

TEST(Scenario, DensityScaledAreaPolicy) {
  ScenarioConfig config;
  config.area_policy = AreaPolicy::kDensityScaled;
  config.n = 200;
  EXPECT_NEAR(config.area().width, 200.0, 1e-9);
  EXPECT_NEAR(config.area().density(200), 0.005, 1e-12);
}

TEST(Scenario, DeployIsDeterministicPerSeed) {
  ScenarioConfig config;
  config.seed = 77;
  const auto a = core::deploy(config);
  const auto b = core::deploy(config);
  EXPECT_EQ(a, b);
  config.seed = 78;
  EXPECT_NE(core::deploy(config), a);
}

TEST(Scenario, DeployCountAndBounds) {
  ScenarioConfig config;
  config.n = 128;
  config.area_policy = AreaPolicy::kDensityScaled;
  const auto points = core::deploy(config);
  EXPECT_EQ(points.size(), 128U);
  const auto area = config.area();
  for (const auto& p : points) EXPECT_TRUE(area.contains(p));
}

TEST(Scenario, ProximityGraphPropertiesOnPaperScenario) {
  ScenarioConfig config;
  config.seed = 3;
  const auto positions = core::deploy(config);
  auto channel = phy::make_paper_channel(config.seed, config.radio);
  const graph::Graph g = core::proximity_graph(positions, *channel);

  EXPECT_EQ(g.vertex_count(), 50U);
  EXPECT_GT(g.edge_count(), 100U);  // dense at Table I density
  // Every edge weight is a received power above the threshold.
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.weight, config.radio.detection_threshold.value);
    // Shadowing is zero-mean in dB, so a lucky short link can show a net
    // gain; 4σ above the transmit power bounds it for any realistic draw.
    EXPECT_LT(e.weight,
              config.radio.tx_power.value + 4.0 * config.radio.shadowing_sigma_db);
  }
  // At 50 devices per hectare the paper's network is connected w.h.p.
  EXPECT_TRUE(g.connected());
}

TEST(Scenario, ProximityGraphSupportsMaxSpanningTree) {
  // Fig. 2's "firefly spanning tree": the heavy-edge tree exists and picks
  // strictly stronger edges than the minimum one.
  ScenarioConfig config;
  config.seed = 9;
  const auto positions = core::deploy(config);
  auto channel = phy::make_paper_channel(config.seed, config.radio);
  const graph::Graph g = core::proximity_graph(positions, *channel);
  ASSERT_TRUE(g.connected());
  const auto heavy = graph::kruskal(g, graph::Orientation::kMax);
  const auto light = graph::kruskal(g, graph::Orientation::kMin);
  EXPECT_TRUE(heavy.spanning);
  EXPECT_GT(heavy.total_weight, light.total_weight);
}

TEST(Scenario, ReliableMarginBeyondTheCandidateCacheIsRejected) {
  // Reliable links are read from the radio's candidate cache, which stops
  // kCandidateFadingMarginDb below threshold: a looser margin is an error in
  // every build, not a silent loss of links.
  ScenarioConfig config;
  config.n = 10;
  config.area_policy = AreaPolicy::kFixed;
  config.radio.reliable_link_margin_db = -phy::RadioParams::kCandidateFadingMarginDb;
  EXPECT_NO_THROW(static_cast<void>(core::run_trial(core::Protocol::kSt, config)));
  config.radio.reliable_link_margin_db = -phy::RadioParams::kCandidateFadingMarginDb - 0.5;
  for (const core::Protocol protocol : {core::Protocol::kSt, core::Protocol::kFst}) {
    EXPECT_THROW(static_cast<void>(core::run_trial(protocol, config)), std::invalid_argument)
        << core::to_string(protocol);
  }
}

TEST(Scenario, ProtocolNames) {
  EXPECT_STREQ(core::to_string(core::Protocol::kFst), "FST");
  EXPECT_STREQ(core::to_string(core::Protocol::kSt), "ST");
}

}  // namespace
