// Tests for the DESYNC backend (src/proto/desync): convergence to a
// sustained balanced round-robin schedule on the paper scenario, the
// observables it contributes to RunMetrics / soak windows / the metric
// registry, and the cold-boot semantics of recovered devices (covered
// indirectly: faulted runs must still evaluate and terminate cleanly).
#include <gtest/gtest.h>

#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "obs/telemetry.hpp"
#include "sim/soak.hpp"

namespace {

using namespace firefly;

core::ScenarioConfig desync_scenario(std::uint64_t seed) {
  core::ScenarioConfig config;
  config.n = 30;
  config.seed = seed;
  config.area_policy = core::AreaPolicy::kFixed;
  return config;
}

TEST(Desync, ConvergesToBalancedScheduleOnPaperScenario) {
  const core::RunMetrics m = core::run_trial(core::Protocol::kDesync, desync_scenario(3));
  ASSERT_TRUE(m.converged);
  EXPECT_GT(m.convergence_ms, 0.0);
  // Completion requires every hearing device within tolerance — the mean
  // residual at the end can be at most the tolerance itself.
  core::ProtocolParams defaults;
  EXPECT_LE(m.desync_error, static_cast<double>(defaults.desync_tolerance_slots));
  EXPECT_LT(m.desync_spread_slots, static_cast<double>(defaults.period_slots));
  // Discovery still runs underneath (DESYNC beacons carry the same
  // discovery payload as FST's).
  EXPECT_GT(m.mean_neighbors_discovered, 0.0);
}

TEST(Desync, ConvergesAcrossSeeds) {
  for (const std::uint64_t seed : {7ULL, 11ULL, 23ULL}) {
    const core::RunMetrics m =
        core::run_trial(core::Protocol::kDesync, desync_scenario(seed));
    EXPECT_TRUE(m.converged) << "seed " << seed;
  }
}

TEST(Desync, OtherProtocolsLeaveDesyncMetricsZero) {
  const core::RunMetrics m = core::run_trial(core::Protocol::kSt, desync_scenario(3));
  EXPECT_EQ(m.desync_error, 0.0);
  EXPECT_EQ(m.desync_spread_slots, 0.0);
}

TEST(Desync, TelemetryGaugeTracksDesyncError) {
  obs::Telemetry telemetry;
  core::RunHooks hooks;
  hooks.telemetry = &telemetry;
  const core::RunMetrics m =
      core::run_trial(core::Protocol::kDesync, desync_scenario(3), hooks);
  ASSERT_TRUE(m.converged);
  // protocol_complete() publishes the mean residual on every convergence
  // check; the last published value is from the check where completion
  // latched, where every hearing device was within tolerance.  (RunMetrics
  // samples again at run end, so the two need not be equal.)
  core::ProtocolParams defaults;
  const double published = telemetry.registry().gauge("proto.desync.error").value();
  EXPECT_GT(published, 0.0) << "gauge never published";
  EXPECT_LE(published, static_cast<double>(defaults.desync_tolerance_slots));
}

TEST(Desync, SoakWindowsCarryDesyncError) {
  core::ScenarioConfig config = desync_scenario(5);
  config.protocol.faults.churn_rate_per_min = 60.0;
  config.protocol.faults.mean_downtime_ms = 900.0;
  core::ServiceConfig service;
  service.duration_slots = 12'000;
  service.window_slots = 2'000;

  std::vector<sim::SoakWindow> windows;
  sim::SoakRecorder recorder;
  recorder.set_consumer([&](const sim::SoakWindow& w) { windows.push_back(w); });
  const core::ServiceReport report = core::run_service_trial(
      core::Protocol::kDesync, config, service, {}, &recorder);
  ASSERT_TRUE(report.ok()) << report.error;
  ASSERT_EQ(windows.size(), 6u);
  bool any_measured = false;
  for (const sim::SoakWindow& w : windows) {
    EXPECT_GE(w.desync_error, 0.0);
    if (w.desync_error > 0.0) any_measured = true;
  }
  EXPECT_TRUE(any_measured) << "no window ever observed a residual";

  // ST soak windows must keep the field at its idle zero.
  sim::SoakRecorder st_recorder;
  st_recorder.set_consumer([](const sim::SoakWindow& w) { EXPECT_EQ(w.desync_error, 0.0); });
  const core::ServiceReport st_report = core::run_service_trial(
      core::Protocol::kSt, config, service, {}, &st_recorder);
  ASSERT_TRUE(st_report.ok()) << st_report.error;
}

}  // namespace
