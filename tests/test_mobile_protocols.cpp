// Integration tests for the mobility extension: devices move mid-protocol,
// shadowing decorrelates, the ST tree self-repairs.
#include <gtest/gtest.h>

#include <set>

#include "core/scenario.hpp"
#include "proto/st.hpp"

namespace {

using namespace firefly;

core::ScenarioConfig mobile_config(double speed, std::uint32_t periods) {
  core::ScenarioConfig config;
  config.n = 40;
  config.seed = 21;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.mobility_speed_mps = speed;
  config.protocol.stop_on_convergence = false;
  config.protocol.max_periods = periods;
  return config;
}

class ObservableSt final : public proto::StEngine {
 public:
  using StEngine::StEngine;
  [[nodiscard]] std::vector<geo::Vec2> positions() const {
    std::vector<geo::Vec2> out;
    for (const auto& d : devices()) out.push_back(d.position);
    return out;
  }
  [[nodiscard]] std::size_t fragment_count() const {
    std::set<std::uint16_t> labels;
    for (std::uint32_t i = 0; i < devices().size(); ++i) labels.insert(fragment(i));
    return labels.size();
  }
  [[nodiscard]] std::int64_t firing_spread_slots() const {
    std::vector<std::int64_t> mods;
    for (std::uint32_t i = 0; i < devices().size(); ++i) {
      if (last_fire_slot(i) >= 0) mods.push_back(last_fire_slot(i) % params().period_slots);
    }
    if (mods.size() < devices().size()) return params().period_slots;
    std::sort(mods.begin(), mods.end());
    const auto period = static_cast<std::int64_t>(params().period_slots);
    std::int64_t max_gap = mods.front() + period - mods.back();
    for (std::size_t i = 1; i < mods.size(); ++i) {
      max_gap = std::max(max_gap, mods[i] - mods[i - 1]);
    }
    return period - max_gap;
  }
};

TEST(Mobility, DevicesActuallyMove) {
  auto config = mobile_config(3.0, 30);
  auto initial = core::deploy(config);
  ObservableSt engine(initial, config.protocol, config.radio, config.seed);
  (void)engine.run();
  const auto moved = engine.positions();
  std::size_t changed = 0;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (geo::distance(initial[i], moved[i]) > 1.0) ++changed;
  }
  EXPECT_GT(changed, initial.size() / 2);
}

TEST(Mobility, StaticRunIsUnaffectedByMobilityCode) {
  // speed = 0 must be byte-identical to the pre-extension behaviour.
  core::ScenarioConfig config;
  config.n = 25;
  config.seed = 33;
  config.area_policy = core::AreaPolicy::kFixed;
  const auto a = core::run_trial(core::Protocol::kSt, config);
  config.protocol.mobility_speed_mps = 0.0;
  const auto b = core::run_trial(core::Protocol::kSt, config);
  EXPECT_EQ(a.total_messages(), b.total_messages());
  EXPECT_DOUBLE_EQ(a.convergence_ms, b.convergence_ms);
}

TEST(Mobility, SyncSurvivesPedestrianMovement) {
  auto config = mobile_config(1.5, 50);  // 5 simulated seconds
  auto positions = core::deploy(config);
  ObservableSt engine(std::move(positions), config.protocol, config.radio, config.seed);
  (void)engine.run();
  // After 5 s of walking, the network still forms one fragment and the
  // firing spread is within a few slots.
  EXPECT_EQ(engine.fragment_count(), 1U);
  EXPECT_LE(engine.firing_spread_slots(), 5);
}

TEST(Mobility, TreeRepairsAfterChurn) {
  // At vehicular speed across a fixed 100 m box, neighbourhoods change
  // completely several times over; the tree must keep repairing rather
  // than fragmenting permanently.
  auto config = mobile_config(10.0, 80);
  auto positions = core::deploy(config);
  ObservableSt engine(std::move(positions), config.protocol, config.radio, config.seed);
  const auto metrics = engine.run();
  EXPECT_LE(engine.fragment_count(), 3U);
  EXPECT_GT(metrics.rach2_messages, 0U);
}

TEST(Mobility, ConvergenceStillRecordedWithoutStopping) {
  auto config = mobile_config(1.0, 60);
  const auto metrics = core::run_trial(core::Protocol::kSt, config);
  // The run went the full duration...
  EXPECT_NEAR(metrics.simulated_ms, 60.0 * 100.0, 1.0);
  // ...but the convergence instant was still captured.
  EXPECT_TRUE(metrics.converged);
  EXPECT_LT(metrics.convergence_ms, metrics.simulated_ms);
}

}  // namespace
