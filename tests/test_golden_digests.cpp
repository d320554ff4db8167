// Golden digests: the recorded results every change to the simulator's
// internals must reproduce.  Each row runs one scenario on one registered
// backend and hashes the serialised RunMetrics (core::write_run_metrics_json,
// shortest-round-trip doubles, so one ULP of drift changes the digest) with
// FNV-1a-64.  The matrix is every backend × {static, mobility, faults,
// service snapshot → restore → tail} × two seeds, plus ST rows for the
// radio's delivery gate the matrix leaves out: duty cycling (static and
// under the fault plan).
//
// The table was recorded while the simulator still carried its reference
// legs — a binary-heap scheduler next to the slot calendar and a fat-struct
// device core next to the flat hot arrays — after checking that every leg
// produced the same JSON on every row (and, for the static rows, the dense
// spatial index too).  The digests are that agreement, kept as data: a
// refactor that changes event order, RNG draw order or hot-state
// initialisation fails here.  Never re-record a digest to make a change
// pass; a deliberate change in results is named as one.  The fault rows
// (faults, duty_faults) were re-recorded once, on purpose, when one-shot
// trials began drawing churn and fades from the same chunk-invariant
// streams as service runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "core/engine.hpp"
#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "proto/registry.hpp"
#include "test_worlds.hpp"

namespace {

using namespace firefly;

enum class Kind { kStatic, kMobility, kFaults, kService, kDuty, kDutyFaults };

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kStatic: return "static";
    case Kind::kMobility: return "mobility";
    case Kind::kFaults: return "faults";
    case Kind::kService: return "service";
    case Kind::kDuty: return "duty";
    case Kind::kDutyFaults: return "duty_faults";
  }
  return "?";
}

struct GoldenRow {
  const char* protocol;  ///< registry name
  Kind kind;
  std::uint64_t seed;
  std::uint64_t digest;  ///< FNV-1a-64 of the RunMetrics JSON
};

std::string row_name(const GoldenRow& row) {
  return std::string(row.protocol) + '_' + to_string(row.kind) + '_' +
         std::to_string(row.seed);
}

void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row_name(row); }

/// The kFaults plan: churn, i.i.d. drops, deep fades and clock drift.
void add_fault_plan(core::ScenarioConfig& config) {
  config.n = 40;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 30;
  config.protocol.faults.churn_rate_per_min = 120.0;
  config.protocol.faults.mean_downtime_ms = 600.0;
  config.protocol.faults.drop_probability = 0.05;
  config.protocol.faults.fade_rate_per_min = 60.0;
  config.protocol.faults.drift_max_ppm = 50.0;
}

/// Receivers listen 70 of every 100 slots, at per-device offsets.
void add_duty_cycle(core::ScenarioConfig& config) {
  config.protocol.duty_awake_slots = 70;
  config.protocol.duty_period_slots = 100;
}

core::ScenarioConfig scenario(const GoldenRow& row) {
  core::ScenarioConfig config;
  config.seed = row.seed;
  switch (row.kind) {
    case Kind::kDuty:
      add_duty_cycle(config);
      [[fallthrough]];
    case Kind::kStatic:
      // Density-scaled area: multi-hop, so ST has fragments to merge.
      config.n = 100;
      config.protocol.max_periods = 150;
      break;
    case Kind::kMobility:
      // Every mobility step re-registers positions and rebuilds the radio's
      // candidate cache; the hot arrays are indexed by registration slot.
      config.n = 40;
      config.protocol.mobility_speed_mps = 1.5;
      config.protocol.stop_on_convergence = false;
      config.protocol.max_periods = 20;
      break;
    case Kind::kFaults:
      // Churn (crash/cold-boot), i.i.d. drops, deep fades and clock drift:
      // far-ahead events and cancel/reschedule under recovery.
      add_fault_plan(config);
      break;
    case Kind::kDutyFaults:
      // Every radio gate at once: crashed and asleep receivers, drops, fades.
      add_fault_plan(config);
      add_duty_cycle(config);
      break;
    case Kind::kService:
      config.n = 24;
      config.protocol.faults.churn_rate_per_min = 120.0;
      config.protocol.faults.mean_downtime_ms = 900.0;
      break;
  }
  return config;
}

/// A 12-window churned soak.  `checkpointed` takes the slot-8000 snapshot,
/// restores it and re-runs the tail; the result must equal the
/// uninterrupted soak's.
std::string service_json(const GoldenRow& row, const core::ScenarioConfig& config,
                         bool checkpointed) {
  core::ServiceConfig service;
  service.duration_slots = 12'000;
  service.window_slots = 1'000;
  if (checkpointed) service.snapshot_every_slots = 8'000;
  std::unique_ptr<core::EngineBase> engine = proto::Registry::instance().make(
      row.protocol, core::deploy(config), config.protocol, config.radio, config.seed);
  core::ServiceReport report = engine->run_service(service);
  if (checkpointed && report.ok()) {
    if (engine->service_snapshot() == nullptr) return "no snapshot was taken";
    engine->restore(*engine->service_snapshot());
    report = engine->run_service(service);
  }
  if (!report.ok()) return "service error: " + report.error;
  return metrics_json(report.metrics);
}

/// The serialised metrics a row's digest covers.
std::string run_json(const GoldenRow& row, const core::ScenarioConfig& config) {
  if (row.kind == Kind::kService) return service_json(row, config, true);
  return metrics_json(
      core::run_trial(proto::Registry::instance().find(row.protocol)->id, config));
}

// Static rows agreed across 8 legs ({wheel, heap} × {soa, struct} × {grid,
// dense}); the others across the 4 scheduler × device-core legs.  No
// backend needed a mobility skip.
constexpr GoldenRow kGolden[] = {
    {"fst", Kind::kStatic, 8101, 0xd4e483180fdc0531ULL},
    {"fst", Kind::kStatic, 31337, 0xbf217dfbd348f51aULL},
    {"fst", Kind::kMobility, 8102, 0x2db050b038a441deULL},
    {"fst", Kind::kMobility, 7003, 0xc7593638386464b9ULL},
    {"fst", Kind::kFaults, 8103, 0xbb129dca15b471b4ULL},
    {"fst", Kind::kFaults, 7004, 0x1fd9b3b05667bbf3ULL},
    {"fst", Kind::kService, 8105, 0x392e9331cc9f1810ULL},
    {"fst", Kind::kService, 3, 0x4e890487dbbb0c29ULL},
    {"st", Kind::kStatic, 8101, 0x8851057bc1f54ab2ULL},
    {"st", Kind::kStatic, 31337, 0xc126654015f5891cULL},
    {"st", Kind::kMobility, 8102, 0x9ed7d035cc7183bcULL},
    {"st", Kind::kMobility, 7003, 0xce4b314d49a7ec22ULL},
    {"st", Kind::kFaults, 8103, 0xa548900796f13103ULL},
    {"st", Kind::kFaults, 7004, 0x50e56800b1f2cdd4ULL},
    {"st", Kind::kService, 8105, 0x5615fc55a2098076ULL},
    {"st", Kind::kService, 3, 0x8de1bb1de5a5aeceULL},
    {"birthday", Kind::kStatic, 8101, 0x6914815013cf7c60ULL},
    {"birthday", Kind::kStatic, 31337, 0x19ba5a1f477f88acULL},
    {"birthday", Kind::kMobility, 8102, 0x42760301808814e4ULL},
    {"birthday", Kind::kMobility, 7003, 0x72a9f9358228356fULL},
    {"birthday", Kind::kFaults, 8103, 0x633832d525f21172ULL},
    {"birthday", Kind::kFaults, 7004, 0xfeab5082be4097abULL},
    {"birthday", Kind::kService, 8105, 0xe2646e11943802e2ULL},
    {"birthday", Kind::kService, 3, 0xfa3f44428d70654cULL},
    {"desync", Kind::kStatic, 8101, 0xa22ad0a3f3c8d833ULL},
    {"desync", Kind::kStatic, 31337, 0xf2ad5dd8c9b13ed4ULL},
    {"desync", Kind::kMobility, 8102, 0x2a883a339d0539d6ULL},
    {"desync", Kind::kMobility, 7003, 0x71a1b8876a289bdaULL},
    {"desync", Kind::kFaults, 8103, 0x4194b6105c21ff2bULL},
    {"desync", Kind::kFaults, 7004, 0xd96d7e09e20ddf77ULL},
    {"desync", Kind::kService, 8105, 0xf693b8c3f9698868ULL},
    {"desync", Kind::kService, 3, 0xc3c6d3ee7097480fULL},
    // Gate mixes, recorded while the radio still had a separate scalar
    // delivery sweep for gated slots, after checking that the grid and dense
    // spatial indexes agreed on every row.
    {"st", Kind::kDuty, 8101, 0xb99c5000f3d8f499ULL},
    {"st", Kind::kDuty, 31337, 0xfcc04e9fcee1382fULL},
    {"st", Kind::kDutyFaults, 8103, 0x4e770501bbf256bdULL},
    {"st", Kind::kDutyFaults, 7004, 0xcd44f42a030d7742ULL},
};

class GoldenDigests : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(GoldenDigests, ReproducesRecordedDigest) {
  const GoldenRow& row = GetParam();
  ASSERT_NE(proto::Registry::instance().find(row.protocol), nullptr) << row.protocol;
  const core::ScenarioConfig config = scenario(row);
  const std::string json = run_json(row, config);
  EXPECT_EQ(core::fnv1a64(json), row.digest) << row_name(row) << " diverged:\n" << json;
  if (row.kind == Kind::kService) {
    EXPECT_EQ(service_json(row, config, false), json)
        << row_name(row) << ": restored tail differs from the uninterrupted soak";
  }
}

// ctest names each case after its row (via PrintTo).
INSTANTIATE_TEST_SUITE_P(AllBackends, GoldenDigests, ::testing::ValuesIn(kGolden));

TEST(GoldenDigests, TableCoversEveryBackend) {
  for (const std::string& name : proto::Registry::instance().names()) {
    int rows = 0;
    for (const GoldenRow& row : kGolden) {
      rows += name == row.protocol && row.kind <= Kind::kService ? 1 : 0;
    }
    EXPECT_EQ(rows, 8) << name << ": 4 scenario kinds x 2 seeds";
  }
}

}  // namespace
