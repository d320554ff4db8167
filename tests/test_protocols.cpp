// Integration tests: the FST baseline and the proposed ST algorithm running
// end to end over the simulated radio (src/proto/fst.hpp, st.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "proto/fst.hpp"
#include "core/scenario.hpp"
#include "proto/st.hpp"

namespace {

using namespace firefly;
using core::Protocol;
using core::RunMetrics;
using core::ScenarioConfig;

ScenarioConfig small_scenario(std::uint64_t seed) {
  ScenarioConfig config;
  config.n = 30;
  config.seed = seed;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 200;
  return config;
}

class ProtocolSeedTest
    : public ::testing::TestWithParam<std::tuple<Protocol, std::uint64_t>> {};

TEST_P(ProtocolSeedTest, ConvergesOnPaperScenario) {
  const auto [protocol, seed] = GetParam();
  const RunMetrics m = core::run_trial(protocol, small_scenario(seed));
  EXPECT_TRUE(m.converged) << core::to_string(protocol) << " seed " << seed;
  EXPECT_GT(m.convergence_ms, 0.0);
  EXPECT_LT(m.convergence_ms, small_scenario(seed).protocol.max_slots());
  EXPECT_GT(m.total_messages(), 0U);
  EXPECT_GT(m.mean_neighbors_discovered, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    BothProtocolsSeveralSeeds, ProtocolSeedTest,
    ::testing::Combine(::testing::Values(Protocol::kFst, Protocol::kSt),
                       ::testing::Values(1ULL, 2ULL, 3ULL)));

TEST(Fst, UsesOnlyRach1) {
  const RunMetrics m = core::run_trial(Protocol::kFst, small_scenario(7));
  EXPECT_GT(m.rach1_messages, 0U);
  EXPECT_EQ(m.rach2_messages, 0U);
  EXPECT_EQ(m.final_fragments, 0U);  // baseline grows no tree
}

TEST(St, UsesBothCodecs) {
  const RunMetrics m = core::run_trial(Protocol::kSt, small_scenario(7));
  EXPECT_GT(m.rach1_messages, 0U);
  EXPECT_GT(m.rach2_messages, 0U);
}

TEST(St, BuildsOneSpanningFragment) {
  const RunMetrics m = core::run_trial(Protocol::kSt, small_scenario(11));
  ASSERT_TRUE(m.converged);
  EXPECT_EQ(m.final_fragments, 1U);
  // A tree on n nodes has n-1 edges; the asynchronous merge races can leave
  // a few extra coupling edges, never fewer.
  EXPECT_GE(m.tree_edges, 29U);
  EXPECT_LE(m.tree_edges, 29U + 12U);
}

TEST(Protocols, DeterministicReplay) {
  for (const Protocol protocol : {Protocol::kFst, Protocol::kSt}) {
    const RunMetrics a = core::run_trial(protocol, small_scenario(13));
    const RunMetrics b = core::run_trial(protocol, small_scenario(13));
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_DOUBLE_EQ(a.convergence_ms, b.convergence_ms);
    EXPECT_EQ(a.total_messages(), b.total_messages());
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_EQ(a.events_processed, b.events_processed);
  }
}

TEST(Protocols, DifferentSeedsGiveDifferentRuns) {
  const RunMetrics a = core::run_trial(Protocol::kSt, small_scenario(17));
  const RunMetrics b = core::run_trial(Protocol::kSt, small_scenario(18));
  EXPECT_NE(a.total_messages(), b.total_messages());
}

TEST(Protocols, SyncAndDiscoveryBothRecorded) {
  const RunMetrics m = core::run_trial(Protocol::kSt, small_scenario(19));
  ASSERT_TRUE(m.converged);
  EXPECT_GT(m.sync_ms, 0.0);
  EXPECT_GT(m.discovery_ms, 0.0);
  EXPECT_DOUBLE_EQ(m.convergence_ms, std::max(m.sync_ms, m.discovery_ms));
  // Per-link alignment can't be harder than global alignment.
  EXPECT_TRUE(m.locally_converged);
  EXPECT_LE(m.local_sync_ms, m.sync_ms);
}

TEST(Protocols, RangingErrorWithinAnalyticBallpark) {
  // Table I: σ = 10 dB, outdoor dual-slope (far-field exponent 4).  The
  // mean |ε| for the log-normal distortion is ~0.45; EWMA averaging of PS
  // strength shrinks it somewhat.  Just pin a sane interval.
  const RunMetrics m = core::run_trial(Protocol::kSt, small_scenario(23));
  EXPECT_GT(m.ranging_mean_abs_rel_error, 0.05);
  EXPECT_LT(m.ranging_mean_abs_rel_error, 1.5);
  EXPECT_GT(m.ranging_p90_rel_error, m.ranging_mean_abs_rel_error / 4.0);
}

TEST(Protocols, ServiceDiscoveryFindsPeers) {
  const RunMetrics m = core::run_trial(Protocol::kSt, small_scenario(29));
  // With 4 services, roughly a quarter of the discovered neighbours share
  // the device's interest.
  EXPECT_GT(m.mean_service_peers, 0.0);
  EXPECT_LT(m.mean_service_peers, m.mean_neighbors_discovered);
}

TEST(Protocols, StBeatsFstAtScaleOnMessages) {
  // The paper's headline: at large scale the proposed ST method needs
  // fewer messages to converge.  Use a mid-size density-scaled network so
  // the test stays fast but the separation is visible.
  ScenarioConfig config;
  config.n = 450;
  config.seed = 5;
  config.area_policy = core::AreaPolicy::kDensityScaled;
  const RunMetrics fst = core::run_trial(Protocol::kFst, config);
  const RunMetrics st = core::run_trial(Protocol::kSt, config);
  ASSERT_TRUE(fst.converged);
  ASSERT_TRUE(st.converged);
  EXPECT_LT(st.total_messages(), fst.total_messages());
  EXPECT_LT(st.convergence_ms, fst.convergence_ms);
}

TEST(Protocols, EngineExposesDeviceStates) {
  ScenarioConfig config = small_scenario(31);
  auto positions = core::deploy(config);
  proto::StEngine engine(positions, config.protocol, config.radio, config.seed);
  const RunMetrics m = engine.run();
  ASSERT_TRUE(m.converged);
  // All devices in one fragment, each with a reasonable neighbour table.
  std::set<std::uint16_t> labels;
  for (std::uint32_t i = 0; i < engine.devices().size(); ++i) {
    labels.insert(engine.fragment(i));
    EXPECT_GT(engine.neighbors(i).size(), 0U);
  }
  EXPECT_EQ(labels.size(), 1U);
}

}  // namespace
