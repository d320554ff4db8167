// Edge cases and failure injection for the protocol engines: tiny
// populations, disconnected networks, hostile channels, degenerate
// parameters.  A production protocol stack must fail *informatively*, not
// crash or hang.
#include <gtest/gtest.h>

#include "proto/fst.hpp"
#include "core/scenario.hpp"
#include "proto/st.hpp"

namespace {

using namespace firefly;

TEST(EdgeCases, SingleDeviceConvergesTrivially) {
  core::ScenarioConfig config;
  config.n = 1;
  config.seed = 1;
  config.area_policy = core::AreaPolicy::kFixed;
  for (const auto protocol : {core::Protocol::kFst, core::Protocol::kSt}) {
    const auto m = core::run_trial(protocol, config);
    EXPECT_TRUE(m.converged) << core::to_string(protocol);
    EXPECT_EQ(m.collisions, 0U);
  }
}

TEST(EdgeCases, TwoDevicesInRange) {
  // Two devices a few metres apart must discover each other and align.
  std::vector<geo::Vec2> positions{{10.0, 10.0}, {14.0, 10.0}};
  core::ProtocolParams params;
  phy::RadioParams radio;
  proto::StEngine engine(positions, params, radio, 7);
  const auto m = engine.run();
  EXPECT_TRUE(m.converged);
  EXPECT_EQ(m.final_fragments, 1U);
  EXPECT_TRUE(engine.neighbors(0).contains(1));
  EXPECT_TRUE(engine.neighbors(1).contains(0));
}

TEST(EdgeCases, DisconnectedIslandsReportFailureNotHang) {
  // Two devices 10 km apart: no link can exist.  The run must terminate at
  // the max_periods cap with converged = false (global sync across
  // disconnected islands is impossible), quickly.
  std::vector<geo::Vec2> positions{{0.0, 0.0}, {10000.0, 10000.0}};
  core::ProtocolParams params;
  params.max_periods = 20;  // keep the capped run short
  phy::RadioParams radio;
  proto::StEngine engine(positions, params, radio, 3);
  const auto m = engine.run();
  EXPECT_FALSE(m.converged);
  EXPECT_NEAR(m.simulated_ms, 20.0 * 100.0, 1.0);
  // Discovery of reliable links is vacuously complete (there are none),
  // but the spanning requirement can never be met.
  EXPECT_GT(m.final_fragments, 1U);
}

TEST(EdgeCases, ExtremeShadowingDegradesButDoesNotCrash) {
  core::ScenarioConfig config;
  config.n = 30;
  config.seed = 5;
  config.area_policy = core::AreaPolicy::kFixed;
  config.radio.shadowing_sigma_db = 25.0;  // brutal environment
  config.protocol.max_periods = 200;
  const auto m = core::run_trial(core::Protocol::kSt, config);
  // Whether it converges is seed luck; the run must be sane either way.
  EXPECT_GT(m.total_messages(), 0U);
  EXPECT_LE(m.convergence_ms, config.protocol.max_slots());
}

TEST(EdgeCases, ZeroShadowingIsBenign) {
  core::ScenarioConfig config;
  config.n = 30;
  config.seed = 6;
  config.area_policy = core::AreaPolicy::kFixed;
  config.radio.shadowing_sigma_db = 0.0;
  const auto m = core::run_trial(core::Protocol::kSt, config);
  EXPECT_TRUE(m.converged);
  // Ranging through a clean channel still carries fast-fading error in the
  // instantaneous samples, but the EWMA average should be decent.
  EXPECT_LT(m.ranging_mean_abs_rel_error, 0.5);
}

TEST(EdgeCases, HugeCoupling) {
  // ε so large that any pulse absorbs: the system must still behave.
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 7;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.prc = pco::PrcParams{3.0, 5.0};
  const auto m = core::run_trial(core::Protocol::kFst, config);
  EXPECT_TRUE(m.converged);
}

TEST(EdgeCases, ShortPeriodStillWorks) {
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 8;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.period_slots = 20;
  const auto m = core::run_trial(core::Protocol::kSt, config);
  EXPECT_TRUE(m.converged);
}

TEST(EdgeCases, DenseHotspotSurvives) {
  // 300 devices crammed into the fixed 100 m box — every device hears
  // every other; collision pressure is maximal.
  core::ScenarioConfig config;
  config.n = 300;
  config.seed = 9;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 600;
  const auto m = core::run_trial(core::Protocol::kSt, config);
  EXPECT_TRUE(m.converged);
  EXPECT_GT(m.collisions, 0U);
}

TEST(EdgeCases, MetricsAreInternallyConsistent) {
  core::ScenarioConfig config;
  config.n = 40;
  config.seed = 10;
  config.area_policy = core::AreaPolicy::kFixed;
  const auto m = core::run_trial(core::Protocol::kSt, config);
  ASSERT_TRUE(m.converged);
  EXPECT_EQ(m.total_messages(), m.rach1_messages + m.rach2_messages);
  EXPECT_GE(m.simulated_ms, m.convergence_ms);
  EXPECT_GE(m.convergence_ms, m.sync_ms);
  EXPECT_GE(m.convergence_ms, m.discovery_ms);
  EXPECT_GE(m.mean_neighbors_discovered, m.mean_service_peers);
  EXPECT_GE(m.total_energy_mj, m.mean_device_energy_mj);
}

}  // namespace
