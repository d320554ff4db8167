// Tests for the long-lived service mode (core/service_mode): windowed soak
// telemetry, the snapshot/restore rollback checkpoint (byte-identical
// RunMetrics after a mid-soak restore, a mid-fade one included, and a
// replayed soak after restoring a pre-service snapshot), the misuse
// errors of snapshot and restore, the recorder's backpressure accounting,
// the config-validation paths, and the discovery check's resume point
// across crash, recover and restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "fault/schedule_stream.hpp"
#include "obs/json.hpp"
#include "proto/st.hpp"
#include "sim/soak.hpp"

namespace {

using namespace firefly;

core::ScenarioConfig soak_scenario(std::uint64_t seed = 11) {
  core::ScenarioConfig config;
  config.n = 24;
  config.seed = seed;
  config.protocol.faults.churn_rate_per_min = 120.0;  // 2 crashes/sec
  config.protocol.faults.mean_downtime_ms = 900.0;
  return config;
}

core::ServiceConfig short_soak() {
  core::ServiceConfig service;
  service.duration_slots = 25'000;
  service.window_slots = 1'000;
  return service;
}

/// StEngine with the service API opened up for direct driving.
class ServiceSt : public proto::StEngine {
 public:
  using proto::StEngine::StEngine;
  using proto::StEngine::restore;
  using proto::StEngine::run_service;
  using proto::StEngine::snapshot;
};

/// StEngine with the device lifecycle and the discovery check opened up.
class DiscoverySt : public proto::StEngine {
 public:
  using proto::StEngine::StEngine;
  using proto::StEngine::crash_device;
  using proto::StEngine::discovery_complete;
  using proto::StEngine::recover_device;
  [[nodiscard]] const auto& reliable_links() const { return reliable_links_; }
  using proto::StEngine::start_run;
  void run_to(std::int64_t slot) { sim_.run_until(slot); }
  /// The discovery check without a resume point: every link, every time.
  [[nodiscard]] bool full_scan() const {
    for (const auto& [u, v] : reliable_links()) {
      if (hot_.down[u] || hot_.down[v]) continue;
      if (!neighbors(u).contains(v) || !neighbors(v).contains(u)) return false;
    }
    return true;
  }
};

TEST(ServiceMode, DiscoveryResumePointAgreesWithAFullScan) {
  core::ScenarioConfig config;
  config.n = 30;
  config.seed = 21;
  config.protocol.stop_on_convergence = false;
  DiscoverySt engine(core::deploy(config), config.protocol, config.radio, config.seed);
  ASSERT_GT(engine.reliable_links().size(), 10U);
  const auto agree = [&](const char* when, std::int64_t slot) {
    const bool full = engine.full_scan();
    EXPECT_EQ(engine.discovery_complete(), full) << when << " at slot " << slot;
    return full;
  };
  engine.start_run();
  const std::unique_ptr<core::EngineSnapshot> start = engine.snapshot();
  const std::uint32_t churned = engine.reliable_links().front().first;
  const std::int64_t horizon = engine.params().max_slots();
  std::int64_t slot = 0;
  // Progress, with a crash and a recover while discovery is under way.
  std::size_t undiscovered_checks = 0;
  bool done = false;
  for (; slot < horizon && !done; slot += 10) {
    engine.run_to(slot);
    if (slot == 20) engine.crash_device(churned);
    if (slot == 40) engine.recover_device(churned);
    done = agree("under way", slot);
    undiscovered_checks += static_cast<std::size_t>(!done);
  }
  ASSERT_TRUE(done) << "discovery never completed";
  EXPECT_GT(undiscovered_checks, 5U);
  // After discovery: a crash waives the device's links, a recover clears
  // its table and owes them again.
  engine.crash_device(churned);
  EXPECT_TRUE(agree("after a crash", slot));
  engine.recover_device(churned);
  EXPECT_FALSE(agree("after a recover", slot));
  for (; slot < horizon && !agree("rediscovering", slot); slot += 10) engine.run_to(slot);
  EXPECT_TRUE(engine.full_scan()) << "the recovered device was never rediscovered";
  // A restore rewinds to empty tables.
  engine.restore(*start);
  EXPECT_FALSE(agree("after a restore", 0));
}

TEST(ServiceMode, EmitsOneWindowPerSlice) {
  std::vector<sim::SoakWindow> windows;
  sim::SoakRecorder recorder;
  recorder.set_consumer([&](const sim::SoakWindow& w) { windows.push_back(w); });
  const core::ServiceReport report = core::run_service_trial(
      core::Protocol::kSt, soak_scenario(), short_soak(), {}, &recorder);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.windows, 25u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(report.windows_dropped, 0u);
  ASSERT_EQ(windows.size(), 25u);
  std::uint64_t crashes = 0, messages = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].index, i);
    EXPECT_EQ(windows[i].start_slot, static_cast<std::int64_t>(i) * 1'000);
    EXPECT_EQ(windows[i].end_slot, static_cast<std::int64_t>(i + 1) * 1'000);
    EXPECT_LE(windows[i].live_devices, 24u);
    EXPECT_GT(windows[i].live_devices, 0u);
    crashes += windows[i].crashes;
    messages += windows[i].messages;
  }
  // Window deltas add up to the run totals.
  EXPECT_EQ(crashes, report.metrics.crashes);
  EXPECT_EQ(messages, report.metrics.total_messages());
  EXPECT_GT(crashes, 0u) << "soak saw no churn";
  // The memory probe is populated (the slot calendar's arena).
  EXPECT_GT(report.arena_capacity, 0u);
  EXPECT_GT(report.arena_high_water, 0u);
  EXPECT_LE(report.arena_high_water, report.arena_capacity);
}

TEST(ServiceMode, SnapshotRestoreReproducesByteIdenticalMetrics) {
  const core::ScenarioConfig config = soak_scenario(5);
  core::ServiceConfig service = short_soak();
  service.snapshot_every_slots = 10'000;  // checkpoints at slots 10k and 20k

  const std::vector<geo::Vec2> positions = core::deploy(config);

  // Uninterrupted reference run (no snapshots at all).
  ServiceSt reference(positions, config.protocol, config.radio, config.seed);
  const core::ServiceReport ref = reference.run_service(short_soak());
  ASSERT_TRUE(ref.ok()) << ref.error;

  // Snapshotting run: identical metrics (checkpointing is a pure observer) …
  ServiceSt checkpointed(positions, config.protocol, config.radio, config.seed);
  const core::ServiceReport with_snaps = checkpointed.run_service(service);
  ASSERT_TRUE(with_snaps.ok()) << with_snaps.error;
  EXPECT_EQ(with_snaps.snapshots, 2u);
  EXPECT_TRUE(ref.metrics == with_snaps.metrics)
      << "taking snapshots perturbed the run";

  // … and rolling back to the slot-20k checkpoint then re-running the tail
  // reproduces the exact same end state, byte for byte.
  ASSERT_NE(checkpointed.service_snapshot(), nullptr);
  checkpointed.restore(*checkpointed.service_snapshot());
  const core::ServiceReport resumed = checkpointed.run_service(service);
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_EQ(resumed.windows, 5u) << "resume should cover slots 20k..25k";
  EXPECT_TRUE(ref.metrics == resumed.metrics)
      << "restored run diverged from the uninterrupted one";
}

TEST(ServiceMode, RestoreRewindsAndReplaysWindows) {
  const core::ScenarioConfig config = soak_scenario(9);
  core::ServiceConfig service = short_soak();
  service.duration_slots = 10'000;
  service.snapshot_every_slots = 4'000;  // checkpoints land at slots 4k and 8k

  const std::vector<geo::Vec2> positions = core::deploy(config);
  ServiceSt engine(positions, config.protocol, config.radio, config.seed);

  std::vector<sim::SoakWindow> all;
  sim::SoakRecorder first_pass;
  first_pass.set_consumer([&](const sim::SoakWindow& w) { all.push_back(w); });
  const core::ServiceReport report = engine.run_service(service, &first_pass);
  ASSERT_TRUE(report.ok()) << report.error;
  ASSERT_EQ(all.size(), 10u);

  ASSERT_NE(engine.service_snapshot(), nullptr);
  engine.restore(*engine.service_snapshot());
  std::vector<sim::SoakWindow> tail;
  sim::SoakRecorder replay;
  replay.set_consumer([&](const sim::SoakWindow& w) { tail.push_back(w); });
  const core::ServiceReport resumed = engine.run_service(service, &replay);
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  ASSERT_EQ(tail.size(), 2u) << "last checkpoint was at slot 8000";
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_TRUE(tail[i] == all[8 + i])
        << "replayed window " << tail[i].index << " differs";
  }
}

TEST(ServiceMode, RestoreOfPreServiceSnapshotReplaysTheSoak) {
  // A snapshot taken before the first run_service, restored after a soak,
  // returns the engine to its pre-service state: the next run_service
  // starts the run and the fault streams afresh and replays the first soak
  // window for window.
  const core::ScenarioConfig config = soak_scenario(5);
  core::ServiceConfig service = short_soak();
  service.duration_slots = 10'000;
  ServiceSt engine(core::deploy(config), config.protocol, config.radio, config.seed);
  const std::unique_ptr<core::EngineSnapshot> before = engine.snapshot();

  std::vector<sim::SoakWindow> first_windows;
  sim::SoakRecorder first_pass;
  first_pass.set_consumer([&](const sim::SoakWindow& w) { first_windows.push_back(w); });
  const core::ServiceReport first = engine.run_service(service, &first_pass);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.metrics.total_messages(), 7'754U);
  EXPECT_EQ(first.metrics.crashes, 22U);

  engine.restore(*before);
  std::vector<sim::SoakWindow> replay_windows;
  sim::SoakRecorder replay;
  replay.set_consumer([&](const sim::SoakWindow& w) { replay_windows.push_back(w); });
  const core::ServiceReport again = engine.run_service(service, &replay);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(again.metrics.total_messages(), 7'754U);
  EXPECT_EQ(again.metrics.crashes, 22U);
  EXPECT_TRUE(first.metrics == again.metrics) << "the replayed soak diverged";
  ASSERT_EQ(replay_windows.size(), first_windows.size());
  for (std::size_t i = 0; i < replay_windows.size(); ++i) {
    EXPECT_TRUE(replay_windows[i] == first_windows[i]) << "window " << i << " differs";
  }
}

TEST(ServiceMode, CheckpointRestoredAfterAPreServiceRestoreKeepsItsFaults) {
  // restore() of a pre-service snapshot rewinds the fault streams to slot 0;
  // a mid-soak checkpoint restored after it must bring back their mid-soak
  // positions, or the tail does not replay the uninterrupted soak's churn.
  const core::ScenarioConfig config = soak_scenario(5);
  core::ServiceConfig service = short_soak();
  service.duration_slots = 10'000;
  service.snapshot_every_slots = 4'000;  // the last checkpoint lands at slot 8k
  ServiceSt engine(core::deploy(config), config.protocol, config.radio, config.seed);
  const std::unique_ptr<core::EngineSnapshot> before = engine.snapshot();

  std::vector<sim::SoakWindow> all;
  sim::SoakRecorder first_pass;
  first_pass.set_consumer([&](const sim::SoakWindow& w) { all.push_back(w); });
  const core::ServiceReport uninterrupted = engine.run_service(service, &first_pass);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.error;
  ASSERT_EQ(all.size(), 10U);

  engine.restore(*before);
  ASSERT_NE(engine.service_snapshot(), nullptr);
  engine.restore(*engine.service_snapshot());
  std::vector<sim::SoakWindow> tail;
  sim::SoakRecorder replay;
  replay.set_consumer([&](const sim::SoakWindow& w) { tail.push_back(w); });
  const core::ServiceReport resumed = engine.run_service(service, &replay);
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_TRUE(uninterrupted.metrics == resumed.metrics)
      << "the checkpoint's tail diverged from the uninterrupted soak";
  ASSERT_EQ(tail.size(), 2U) << "the last checkpoint was at slot 8000";
  std::uint64_t tail_crashes = 0;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_TRUE(tail[i] == all[8 + i]) << "replayed window " << tail[i].index << " differs";
    tail_crashes += tail[i].crashes;
  }
  EXPECT_GT(tail_crashes, 0U) << "the tail ran without churn";
}

TEST(ServiceMode, RestoreRejectsSnapshotOfAnotherEngineSize) {
  // The check must hold in Release builds too: restoring an N=24 hot block
  // into an N=16 engine would overrun the restore's memcpy.
  const core::ScenarioConfig big = soak_scenario(5);
  ASSERT_EQ(big.n, 24u);
  core::ScenarioConfig small = big;
  small.n = 16;
  ServiceSt source(core::deploy(big), big.protocol, big.radio, big.seed);
  ServiceSt target(core::deploy(small), small.protocol, small.radio, small.seed);
  const std::unique_ptr<core::EngineSnapshot> snap = source.snapshot();
  EXPECT_THROW(target.restore(*snap), std::invalid_argument);
}

TEST(ServiceMode, RestoreRejectsSnapshotOfAnotherEngine) {
  // Same size, different engine: the snapshot's cloned callbacks capture
  // the engine that took it, so restoring it anywhere else must throw.
  const core::ScenarioConfig first = soak_scenario(5);
  const core::ScenarioConfig second = soak_scenario(6);
  ASSERT_EQ(first.n, 24u);
  ServiceSt source(core::deploy(first), first.protocol, first.radio, first.seed);
  ServiceSt target(core::deploy(second), second.protocol, second.radio, second.seed);
  const std::unique_ptr<core::EngineSnapshot> snap = source.snapshot();
  EXPECT_THROW(target.restore(*snap), std::invalid_argument);
  EXPECT_NO_THROW(source.restore(*snap));
}

TEST(ServiceMode, SnapshotRestoreMidFadeIsByteIdentical) {
  // Churn, i.i.d. drops and deep fades, checkpointed at a window boundary
  // that falls inside a fade: the restored tail must reproduce the
  // uninterrupted soak, active-fade set and drop stream included.
  core::ScenarioConfig config = soak_scenario(13);
  config.protocol.faults.drop_probability = 0.05;
  config.protocol.faults.fade_rate_per_min = 60.0;
  config.protocol.faults.fade_mean_duration_ms = 3'000.0;
  const core::ServiceConfig service = short_soak();

  // The fade stream is a pure function of (plan, N, seed): find the first
  // window boundary strictly inside an episode.
  fault::FadeStream fades(config.protocol.faults, static_cast<std::uint32_t>(config.n),
                          config.seed);
  std::vector<fault::FadeEpisode> episodes;
  fades.generate_until(service.duration_slots, episodes);
  std::int64_t checkpoint = -1;
  for (std::int64_t b = service.window_slots; b < service.duration_slots && checkpoint < 0;
       b += service.window_slots) {
    for (const fault::FadeEpisode& f : episodes) {
      if (f.start_slot < b && b < f.end_slot) checkpoint = b;
    }
  }
  ASSERT_GT(checkpoint, 0) << "no window boundary falls inside a fade";

  const auto json = [](const core::RunMetrics& metrics) {
    std::ostringstream oss;
    obs::JsonWriter w(oss);
    core::write_run_metrics_json(w, metrics);
    return oss.str();
  };
  const std::vector<geo::Vec2> positions = core::deploy(config);
  ServiceSt reference(positions, config.protocol, config.radio, config.seed);
  const core::ServiceReport ref = reference.run_service(service);
  ASSERT_TRUE(ref.ok()) << ref.error;
  ASSERT_GT(ref.metrics.fade_episodes, 0u);
  ASSERT_GT(ref.metrics.fault_drops, 0u);

  ServiceSt resumed(positions, config.protocol, config.radio, config.seed);
  core::ServiceConfig head = service;
  head.duration_slots = checkpoint;
  ASSERT_TRUE(resumed.run_service(head).ok());
  const std::unique_ptr<core::EngineSnapshot> snap = resumed.snapshot();
  const core::ServiceReport straight = resumed.run_service(service);
  ASSERT_TRUE(straight.ok()) << straight.error;
  EXPECT_EQ(json(straight.metrics), json(ref.metrics)) << "the checkpoint perturbed the run";
  resumed.restore(*snap);
  const core::ServiceReport tail = resumed.run_service(service);
  ASSERT_TRUE(tail.ok()) << tail.error;
  EXPECT_EQ(json(tail.metrics), json(ref.metrics))
      << "restored at slot " << checkpoint << ", mid-fade";
}

TEST(ServiceMode, SnapshotRejectsMobileScenario) {
  core::ScenarioConfig config = soak_scenario();
  config.protocol.mobility_speed_mps = 1.5;
  ServiceSt engine(core::deploy(config), config.protocol, config.radio, config.seed);
  EXPECT_THROW((void)engine.snapshot(), std::invalid_argument);
}

TEST(ServiceMode, RejectsPlansEndingBeforeHorizon) {
  core::ScenarioConfig config = soak_scenario();
  config.protocol.faults.churn_stop_ms = 4'000.0;
  const core::ServiceReport report =
      core::run_service_trial(core::Protocol::kSt, config, short_soak());
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("churn stops"), std::string::npos) << report.error;
  EXPECT_EQ(report.windows, 0u) << "a rejected soak must not run";
}

TEST(ServiceMode, RejectsMobilityAndBadConfig) {
  core::ScenarioConfig config = soak_scenario();
  config.protocol.mobility_speed_mps = 1.5;
  EXPECT_FALSE(core::run_service_trial(core::Protocol::kSt, config, short_soak()).ok());

  core::ServiceConfig bad = short_soak();
  bad.window_slots = 0;
  EXPECT_FALSE(core::run_service_trial(core::Protocol::kSt, soak_scenario(), bad).ok());
}

TEST(SoakRecorder, RingDropsOldestAndCountsIt) {
  sim::SoakRecorder recorder(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    sim::SoakWindow w;
    w.index = i;
    recorder.push(w);
  }
  EXPECT_EQ(recorder.dropped(), 6u);
}

TEST(SoakRecorder, StreamingConsumerNeverDrops) {
  sim::SoakRecorder recorder(2);
  std::vector<std::uint64_t> seen;
  recorder.set_consumer([&](const sim::SoakWindow& w) { seen.push_back(w.index); });
  for (std::uint64_t i = 0; i < 8; ++i) {
    sim::SoakWindow w;
    w.index = i;
    recorder.push(w);
  }
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

}  // namespace
