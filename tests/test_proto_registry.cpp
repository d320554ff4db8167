// Tests for the protocol registry (src/proto/registry): the built-in
// contents and their deterministic enumeration order, strict lookup
// (unknown names are nullptr, never a fallback), and the dispatch
// invariants the trial drivers rely on — an engine built by registry name
// is the same engine `run_trial` builds by enum (byte-identical serialized
// RunMetrics), and service snapshot/restore round-trips through the
// protocol hooks for every registered backend; a zero period is refused at
// build.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "proto/registry.hpp"
#include "test_worlds.hpp"

namespace {

using namespace firefly;

TEST(ProtoRegistry, BuiltinNamesEnumerateInRegistrationOrder) {
  const std::vector<std::string> expected = {"fst", "st", "birthday", "desync"};
  EXPECT_EQ(proto::Registry::instance().names(), expected);
  // names() is a pure enumeration: asking twice gives the same answer.
  EXPECT_EQ(proto::Registry::instance().names(), expected);
}

TEST(ProtoRegistry, FindByNameAndByEnumAgree) {
  const proto::Registry& registry = proto::Registry::instance();
  for (const std::string& name : registry.names()) {
    const proto::ProtocolInfo* by_name = registry.find(name);
    ASSERT_NE(by_name, nullptr) << name;
    EXPECT_EQ(registry.find(by_name->id), by_name);
    EXPECT_FALSE(by_name->summary.empty()) << name;
  }
}

TEST(ProtoRegistry, UnknownNameIsNullNotAFallback) {
  const proto::Registry& registry = proto::Registry::instance();
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_EQ(registry.find(""), nullptr);
  EXPECT_EQ(registry.find("ST"), nullptr) << "registry names are lower-case";
  core::ScenarioConfig config;
  config.n = 4;
  EXPECT_EQ(registry.make("nope", core::deploy(config), config.protocol, config.radio,
                          config.seed),
            nullptr);
}

TEST(ProtoRegistry, ZeroPeriodOrServiceCountIsRejected) {
  // The period is the range of a uniform index draw; zero has none.
  const proto::Registry& registry = proto::Registry::instance();
  for (const std::string& name : registry.names()) {
    core::ScenarioConfig config;
    config.n = 10;
    config.protocol.period_slots = 0;
    EXPECT_THROW(static_cast<void>(registry.make(name, core::deploy(config), config.protocol,
                                                 config.radio, config.seed)),
                 std::invalid_argument)
        << name << " period_slots = 0";
  }
}

TEST(ProtoRegistry, PastTheSixteenBitWireBoundIsRejected) {
  // Ids, fragment labels and counters travel in 16-bit fields where 0xFFFF
  // is kInvalidId.  The device-count check comes before the radio rebuild,
  // so a lattice of 65,535 devices 1 km apart costs O(N) to reject.
  std::vector<geo::Vec2> lattice;
  lattice.reserve(core::kInvalidId);
  for (std::uint32_t i = 0; i < core::kInvalidId; ++i) {
    lattice.push_back({1000.0 * (i % 256), 1000.0 * (i / 256)});
  }
  const std::vector<geo::Vec2> few(lattice.begin(), lattice.begin() + 10);
  const proto::Registry& registry = proto::Registry::instance();
  for (const std::string& name : registry.names()) {
    core::ProtocolParams params;
    const phy::RadioParams radio;
    EXPECT_THROW(static_cast<void>(registry.make(name, lattice, params, radio, 1)),
                 std::invalid_argument)
        << name << " N = 65535";
    params.period_slots = 65'537;
    EXPECT_THROW(static_cast<void>(registry.make(name, few, params, radio, 1)),
                 std::invalid_argument)
        << name << " period_slots = 65537";
    params.period_slots = 65'536;
    EXPECT_NO_THROW(static_cast<void>(registry.make(name, few, params, radio, 1)))
        << name << " period_slots = 65536";
  }
}

TEST(ProtoRegistry, EngineBuiltByNameMatchesRunTrialByEnum) {
  // run_trial dispatches by enum through the registry; building the engine
  // by registry name and running it directly must reproduce the exact same
  // serialized RunMetrics — name lookup and enum lookup are one backend.
  const proto::Registry& registry = proto::Registry::instance();
  for (const std::string& name : registry.names()) {
    core::ScenarioConfig config;
    config.n = 20;
    config.seed = 77;
    config.protocol.max_periods = 120;
    const core::RunMetrics via_enum =
        core::run_trial(registry.find(name)->id, config);
    std::unique_ptr<core::EngineBase> engine = registry.make(
        name, core::deploy(config), config.protocol, config.radio, config.seed);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(metrics_json(engine->run()), metrics_json(via_enum)) << name;
  }
}

TEST(ProtoRegistry, ServiceSnapshotRestoreRoundTripsForEveryBackend) {
  // The PR 6 replay harness, generalised across the registry: for each
  // backend, a soak with checkpoints matches the uninterrupted reference,
  // and rolling back to the last checkpoint and re-running the tail
  // reproduces the same end state — protocol_snapshot_word/restore_word
  // must capture everything protocol-specific.
  const proto::Registry& registry = proto::Registry::instance();
  for (const std::string& name : registry.names()) {
    core::ScenarioConfig config;
    config.n = 16;
    config.seed = 5;
    config.protocol.faults.churn_rate_per_min = 90.0;
    config.protocol.faults.mean_downtime_ms = 800.0;
    const std::vector<geo::Vec2> positions = core::deploy(config);

    core::ServiceConfig service;
    service.duration_slots = 8'000;
    service.window_slots = 1'000;

    std::unique_ptr<core::EngineBase> reference = registry.make(
        name, positions, config.protocol, config.radio, config.seed);
    ASSERT_NE(reference, nullptr) << name;
    const core::ServiceReport ref = reference->run_service(service);
    ASSERT_TRUE(ref.ok()) << name << ": " << ref.error;

    core::ServiceConfig checkpointed = service;
    checkpointed.snapshot_every_slots = 4'000;
    std::unique_ptr<core::EngineBase> engine = registry.make(
        name, positions, config.protocol, config.radio, config.seed);
    const core::ServiceReport with_snaps = engine->run_service(checkpointed);
    ASSERT_TRUE(with_snaps.ok()) << name << ": " << with_snaps.error;
    EXPECT_TRUE(ref.metrics == with_snaps.metrics)
        << name << ": taking snapshots perturbed the run";

    ASSERT_NE(engine->service_snapshot(), nullptr) << name;
    engine->restore(*engine->service_snapshot());
    const core::ServiceReport resumed = engine->run_service(checkpointed);
    ASSERT_TRUE(resumed.ok()) << name << ": " << resumed.error;
    EXPECT_TRUE(ref.metrics == resumed.metrics)
        << name << ": restored run diverged from the uninterrupted one";
  }
}

}  // namespace
