// Tests for the sync-free birthday-protocol baseline (src/proto/birthday.hpp).
#include <gtest/gtest.h>

#include "proto/birthday.hpp"
#include "core/scenario.hpp"
#include "pco/sync_metrics.hpp"

namespace {

using namespace firefly;

core::ScenarioConfig small(std::uint64_t seed) {
  core::ScenarioConfig config;
  config.n = 30;
  config.seed = seed;
  config.area_policy = core::AreaPolicy::kFixed;
  return config;
}

TEST(Birthday, CompletesDiscoveryWithoutSync) {
  const auto m = core::run_trial(core::Protocol::kBirthday, small(1));
  EXPECT_TRUE(m.converged);  // discovery-only convergence
  EXPECT_GT(m.discovery_ms, 0.0);
  EXPECT_GT(m.mean_neighbors_discovered, 5.0);
  EXPECT_EQ(m.rach2_messages, 0U);  // no control plane at all
  EXPECT_EQ(m.final_fragments, 0U);
}

TEST(Birthday, NeverAligns) {
  // Run the engine directly and confirm firing phases stay spread out.
  auto config = small(2);
  config.protocol.stop_on_convergence = false;
  config.protocol.max_periods = 50;
  auto positions = core::deploy(config);
  proto::BirthdayEngine engine(std::move(positions), config.protocol, config.radio,
                              config.seed);
  const auto m = engine.run();
  EXPECT_TRUE(m.converged);
  std::vector<double> phases;
  for (std::uint32_t i = 0; i < engine.devices().size(); ++i) {
    phases.push_back(static_cast<double>(engine.last_fire_slot(i) % 100) / 100.0);
  }
  // i.i.d. uniform phases: spread close to 1, far from aligned.
  EXPECT_GT(pco::circular_spread(phases), 0.5);
}

TEST(Birthday, DiscoveryFasterThanFstAtScale) {
  // Without fire-synchronised beacon pile-ups, the pure birthday protocol
  // discovers faster than the synchronised FST at scale — the quantitative
  // form of "FST's sync hurts its own discovery".
  core::ScenarioConfig config;
  config.n = 300;
  config.seed = 4;
  config.area_policy = core::AreaPolicy::kDensityScaled;
  const auto birthday = core::run_trial(core::Protocol::kBirthday, config);
  const auto fst = core::run_trial(core::Protocol::kFst, config);
  ASSERT_TRUE(birthday.converged);
  ASSERT_TRUE(fst.converged);
  EXPECT_LT(birthday.discovery_ms, fst.discovery_ms);
}

TEST(Birthday, DeterministicPerSeed) {
  const auto a = core::run_trial(core::Protocol::kBirthday, small(5));
  const auto b = core::run_trial(core::Protocol::kBirthday, small(5));
  EXPECT_DOUBLE_EQ(a.convergence_ms, b.convergence_ms);
  EXPECT_EQ(a.total_messages(), b.total_messages());
}

TEST(Birthday, NameRegistered) {
  EXPECT_STREQ(core::to_string(core::Protocol::kBirthday), "Birthday");
}

}  // namespace
