// Tests for the fault-injection subsystem: the FaultInjector's drift and
// batched channel-fault answers (src/fault/), the radio's down/channel-fault
// plumbing, the engine's crash/recover lifecycle and the one fault process
// both run modes share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "core/trace.hpp"
#include "proto/st.hpp"
#include "fault/fault_injector.hpp"
#include "mac/radio.hpp"

namespace {

using namespace firefly;
using fault::ChurnEvent;
using fault::FadeEpisode;
using fault::FaultInjector;
using fault::FaultPlan;

FaultPlan busy_plan() {
  FaultPlan plan;
  plan.churn_rate_per_min = 30.0;
  plan.mean_downtime_ms = 1500.0;
  plan.drift_max_ppm = 200.0;
  plan.drop_probability = 0.1;
  plan.fade_rate_per_min = 60.0;
  plan.fade_mean_duration_ms = 400.0;
  return plan;
}

TEST(FaultPlan, EnabledFlags) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.drift_max_ppm = 10.0;
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(plan.churn_enabled());
  EXPECT_FALSE(plan.channel_enabled());
  plan = {};
  plan.churn_rate_per_min = 1.0;
  EXPECT_TRUE(plan.churn_enabled());
  plan = {};
  plan.drop_probability = 0.01;
  EXPECT_TRUE(plan.channel_enabled());
}

TEST(FaultInjector, SchedulesAreDeterministic) {
  const FaultInjector da(busy_plan(), 20, 42);
  const FaultInjector db(busy_plan(), 20, 42);
  for (std::uint32_t d = 0; d < 20; ++d) {
    EXPECT_EQ(da.drift_ppm(d), db.drift_ppm(d));
  }
}

TEST(FaultInjector, DriftWithinBoundsAndZeroWhenDisabled) {
  const FaultInjector inj(busy_plan(), 50, 9);
  bool any_nonzero = false;
  for (std::uint32_t d = 0; d < 50; ++d) {
    EXPECT_LE(std::abs(inj.drift_ppm(d)), 200.0);
    if (inj.drift_ppm(d) != 0.0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  const FaultInjector off(FaultPlan{}, 50, 9);
  for (std::uint32_t d = 0; d < 50; ++d) EXPECT_EQ(off.drift_ppm(d), 0.0);
}

TEST(FaultInjector, DropStreamMatchesProbabilityAndReplays) {
  // One block of draws equals the same draws taken one at a time.
  FaultPlan plan;
  plan.drop_probability = 0.3;
  FaultInjector a(plan, 2, 77);
  FaultInjector b(plan, 2, 77);
  std::vector<std::uint8_t> block(10'000);
  ASSERT_TRUE(a.fill_drops(block.data(), block.size()));
  int drops = 0;
  for (const std::uint8_t d : block) {
    std::uint8_t single = 2;
    ASSERT_TRUE(b.fill_drops(&single, 1));
    EXPECT_EQ(d, single) << "drop stream must replay";
    if (d != 0) ++drops;
  }
  EXPECT_NEAR(drops / 10'000.0, 0.3, 0.03);
  FaultInjector off(FaultPlan{}, 2, 77);
  std::uint8_t untouched = 2;
  EXPECT_FALSE(off.fill_drops(&untouched, 1)) << "no drop knob: nothing drawn";
  EXPECT_EQ(untouched, 2);
}

TEST(FaultInjector, OverlappingFadesKeepTheLinkFaded) {
  FaultPlan plan;
  plan.fade_rate_per_min = 1.0;  // enables the channel path
  plan.fade_depth_db = 40.0;
  FaultInjector inj(plan, 4, 5);
  const FadeEpisode first{100, 500, 1, 2};
  const FadeEpisode second{200, 800, 1, 2};
  EXPECT_EQ(inj.link_attenuation_db(1, 2), 0.0);
  inj.fade_started(first);
  inj.fade_started(second);
  EXPECT_EQ(inj.link_attenuation_db(1, 2), 40.0);
  EXPECT_EQ(inj.link_attenuation_db(2, 1), 40.0);  // symmetric
  EXPECT_EQ(inj.link_attenuation_db(0, 3), 0.0);   // other links clear
  inj.fade_ended(first);
  EXPECT_EQ(inj.link_attenuation_db(1, 2), 40.0) << "second episode still open";
  inj.fade_ended(second);
  EXPECT_EQ(inj.link_attenuation_db(1, 2), 0.0);
}

TEST(RadioFaults, DownDeviceNeitherSendsNorReceives) {
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(1);
  mac::RadioMedium radio(&sim, channel.get());
  int heard_by_1 = 0;
  int heard_by_2 = 0;
  radio.add_device(0, {0.0, 0.0});
  radio.add_device(1, {10.0, 0.0});
  radio.add_device(2, {10.0, 1.0});
  radio.rebuild();
  radio.set_delivery_sink([&](const mac::RxBatch& batch) {
    for (std::size_t k = 0; k < batch.count; ++k) {
      if (batch[k].rx_index == 1) ++heard_by_1;
      if (batch[k].rx_index == 2) ++heard_by_2;
    }
  });
  radio.set_down(2, true);
  EXPECT_TRUE(radio.is_down(2));
  sim.schedule_at(0, [&] {
    radio.broadcast(0, {mac::RachCodec::kRach1, 0}, mac::PsType::kSyncPulse, 0);
    radio.broadcast(2, {mac::RachCodec::kRach1, 1}, mac::PsType::kSyncPulse, 0);
  });
  sim.run();
  EXPECT_EQ(heard_by_1, 1) << "only device 0's broadcast goes out";
  EXPECT_EQ(heard_by_2, 0);
  EXPECT_EQ(radio.counters().rach1_tx, 1U) << "a down sender is not metered";
}

TEST(RadioFaults, HookVetoIsCountedAndAttenuationFlowsThrough) {
  // A veto is an infinite attenuation: the reception is lost and counted as
  // one fault drop.  A finite attenuation flows through to the delivered
  // power.
  struct Veto final : mac::ChannelFaults {
    double attenuation_db = std::numeric_limits<double>::infinity();
    bool fill_drops(std::uint8_t*, std::size_t) override { return false; }
    bool fill_attenuation(std::uint32_t, mac::PsType, const std::uint32_t*, std::size_t n,
                          double* out) override {
      for (std::size_t i = 0; i < n; ++i) out[i] = attenuation_db;
      return true;
    }
  };
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(1);
  mac::RadioMedium radio(&sim, channel.get());
  std::vector<util::Dbm> heard;
  radio.add_device(0, {0.0, 0.0});
  radio.add_device(1, {10.0, 0.0});
  radio.rebuild();
  radio.set_delivery_sink([&](const mac::RxBatch& batch) {
    for (std::size_t k = 0; k < batch.count; ++k) {
      if (batch[k].rx_index == 1) heard.push_back(batch[k].rx_power);
    }
  });
  Veto veto;
  radio.set_channel_faults(&veto);
  const auto send = [&] {
    sim.schedule_at(sim.now(), [&] {
      radio.broadcast(0, {mac::RachCodec::kRach1, 0}, mac::PsType::kSyncPulse, 0);
    });
    sim.run();
  };
  send();
  EXPECT_TRUE(heard.empty());
  EXPECT_EQ(radio.counters().fault_drops, 1U);
  veto.attenuation_db = 0.0;  // clear link: pass through unchanged
  send();
  ASSERT_EQ(heard.size(), 1U);
  EXPECT_EQ(radio.counters().fault_drops, 1U);

  // Same fading draw, with and without 3 dB of attenuation.
  const util::Rng fading = channel->fading_rng();
  send();
  channel->fading_rng() = fading;
  veto.attenuation_db = 3.0;
  send();
  ASSERT_EQ(heard.size(), 3U);
  EXPECT_DOUBLE_EQ(heard[2].value, heard[1].value - 3.0);
  EXPECT_EQ(radio.counters().fault_drops, 1U);
}

TEST(FaultInjector, AttenuatesOnlyLinksUnderAnActiveFade) {
  FaultPlan plan;
  plan.fade_depth_db = 40.0;
  FaultInjector inj(plan, 8, 5);
  const std::uint32_t rx[] = {0, 2, 3};
  double att[3] = {-1.0, -1.0, -1.0};
  EXPECT_FALSE(inj.fill_attenuation(2, mac::PsType::kSyncPulse, rx, 3, att))
      << "no active fade: answered without looking";
  EXPECT_EQ(att[0], -1.0);
  const FadeEpisode episode{0, 100, 2, 3};
  inj.fade_started(episode);
  EXPECT_FALSE(inj.fill_attenuation(1, mac::PsType::kSyncPulse, rx, 3, att))
      << "the fade does not touch sender 1";
  ASSERT_TRUE(inj.fill_attenuation(2, mac::PsType::kSyncPulse, rx, 3, att));
  EXPECT_EQ(att[0], 0.0);
  EXPECT_EQ(att[1], 0.0);
  EXPECT_EQ(att[2], 40.0);
  ASSERT_TRUE(inj.fill_attenuation(3, mac::PsType::kSyncPulse, rx, 3, att));
  EXPECT_EQ(att[1], 40.0) << "symmetric";
  inj.fade_ended(episode);
  EXPECT_FALSE(inj.fill_attenuation(2, mac::PsType::kSyncPulse, rx, 3, att));
}

// Exposes the protected stepping interface for lifecycle tests.
class SteppableSt : public proto::StEngine {
 public:
  using proto::StEngine::StEngine;
  using proto::StEngine::collect_metrics;
  using proto::StEngine::crash_device;
  using proto::StEngine::recover_device;
  using proto::StEngine::start_run;
  [[nodiscard]] bool down(std::uint32_t i) const { return hot_.down[i]; }
  [[nodiscard]] bool is_head(std::uint32_t i) const { return hot_.is_head[i]; }
  [[nodiscard]] std::uint16_t fragment_size(std::uint32_t i) const {
    return hot_.fragment_size[i];
  }
  sim::Simulator& sim() { return sim_; }
};

TEST(EngineFaults, CrashParksAndRecoverColdBoots) {
  const std::vector<geo::Vec2> positions{{0.0, 0.0}, {15.0, 0.0}, {0.0, 15.0}};
  core::ProtocolParams params;
  params.max_periods = 100;
  params.stop_on_convergence = false;
  SteppableSt engine(positions, params, phy::RadioParams{}, 21);
  engine.start_run();
  engine.sim().run_until(1'000);
  ASSERT_GT(engine.neighbors(1).size(), 0U);

  engine.crash_device(1);
  EXPECT_TRUE(engine.down(1));
  engine.sim().run_until(2'000);
  const std::int64_t fire_while_down = engine.last_fire_slot(1);
  engine.sim().run_until(3'000);
  EXPECT_EQ(engine.last_fire_slot(1), fire_while_down)
      << "a crashed oscillator must not fire";

  engine.recover_device(1);
  EXPECT_FALSE(engine.down(1));
  EXPECT_EQ(engine.neighbors(1).size(), 0U) << "cold boot clears the table";
  EXPECT_TRUE(engine.is_head(1)) << "ST restarts as a singleton head";
  EXPECT_EQ(engine.fragment_size(1), 1U);
  engine.sim().run_until(5'000);
  EXPECT_GT(engine.last_fire_slot(1), fire_while_down) << "oscillator restarted";
  EXPECT_GT(engine.neighbors(1).size(), 0U) << "rediscovers the neighbourhood";

  const core::RunMetrics m = engine.collect_metrics();
  EXPECT_EQ(m.crashes, 1U);
  EXPECT_EQ(m.recoveries, 1U);
  EXPECT_EQ(m.alive_at_end, 3U);
}

TEST(EngineFaults, FaultedRunObservesThroughConvergence) {
  // With a fault plan the engine must keep running past first convergence
  // (resilience is measured on the tail), even though the config asks for
  // stop_on_convergence.
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 31;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 120;
  config.protocol.stop_on_convergence = true;
  config.protocol.faults.drop_probability = 0.02;
  const core::RunMetrics m = core::run_trial(core::Protocol::kSt, config);
  ASSERT_TRUE(m.converged);
  EXPECT_GE(m.simulated_ms, static_cast<double>(config.protocol.max_slots()));
  EXPECT_GT(m.fault_drops, 0U);
  EXPECT_GT(m.sync_uptime, 0.0);
}

TEST(EngineFaults, DeepFadesAreMeteredAndSurvived) {
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 8;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 200;
  config.protocol.faults.fade_rate_per_min = 120.0;
  config.protocol.faults.fade_mean_duration_ms = 500.0;
  const core::RunMetrics m = core::run_trial(core::Protocol::kSt, config);
  EXPECT_GT(m.fade_episodes, 0U);
  EXPECT_TRUE(m.converged);
}

TEST(EngineFaults, OneShotAndServiceRunsSeeTheSameFaults) {
  // One fault process: a one-shot trial pulls the fault streams once, to its
  // horizon, and a service soak to the same horizon pulls them window by
  // window.  Both must crash, recover and fade the same devices and links
  // at the same slots.  Events at one slot may be scheduled in a different
  // order in the two modes, so the lists are compared sorted.
  core::ScenarioConfig config;
  config.n = 24;
  config.seed = 17;
  config.protocol.max_periods = 120;
  config.protocol.faults.churn_rate_per_min = 120.0;
  config.protocol.faults.mean_downtime_ms = 900.0;
  config.protocol.faults.drop_probability = 0.05;
  config.protocol.faults.fade_rate_per_min = 120.0;
  config.protocol.faults.fade_mean_duration_ms = 800.0;
  using Fault = std::tuple<double, core::TraceKind, std::uint32_t, std::uint32_t, std::uint32_t>;
  const auto faults = [](const core::TraceSink& sink) {
    std::vector<Fault> out;
    for (const core::TraceEvent& e : sink.events()) {
      if (e.kind == core::TraceKind::kCrash || e.kind == core::TraceKind::kRecover ||
          e.kind == core::TraceKind::kFadeStart || e.kind == core::TraceKind::kFadeEnd) {
        out.emplace_back(e.time_ms, e.kind, e.device, e.a, e.b);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  core::TraceSink one_shot_sink;
  const core::RunMetrics one_shot =
      core::run_trial(core::Protocol::kSt, config, {.trace = &one_shot_sink});
  core::TraceSink service_sink;
  core::ServiceConfig service;
  service.duration_slots = config.protocol.max_slots();
  service.window_slots = 1'000;
  const core::ServiceReport soak =
      core::run_service_trial(core::Protocol::kSt, config, service, {.trace = &service_sink});
  ASSERT_TRUE(soak.ok()) << soak.error;

  const std::vector<Fault> expected = faults(one_shot_sink);
  ASSERT_GT(one_shot.crashes, 0U);
  ASSERT_GT(one_shot.fade_episodes, 0U);
  EXPECT_EQ(faults(service_sink), expected);
  EXPECT_EQ(soak.metrics.crashes, one_shot.crashes);
  EXPECT_EQ(soak.metrics.recoveries, one_shot.recoveries);
  EXPECT_EQ(soak.metrics.fade_episodes, one_shot.fade_episodes);
}

}  // namespace
