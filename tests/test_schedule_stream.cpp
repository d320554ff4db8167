// Tests for the regenerating fault-schedule streams (fault/schedule_stream):
// chunk-invariance of the emitted sequences, churn-stop semantics, downtime absorption, and the service-horizon
// validation that rejects fault plans ending before the soak does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/schedule_stream.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;

fault::FaultPlan churn_plan(double rate_per_min, double downtime_ms = 500.0) {
  fault::FaultPlan plan;
  plan.churn_rate_per_min = rate_per_min;
  plan.mean_downtime_ms = downtime_ms;
  return plan;
}

std::vector<fault::ChurnEvent> churn_in_one_call(const fault::FaultPlan& plan,
                                                 std::uint32_t n, std::uint64_t seed,
                                                 std::int64_t horizon) {
  fault::ChurnStream stream(plan, n, seed);
  std::vector<fault::ChurnEvent> out;
  stream.generate_until(horizon, out);
  return out;
}

std::vector<fault::ChurnEvent> churn_in_chunks(const fault::FaultPlan& plan,
                                               std::uint32_t n, std::uint64_t seed,
                                               std::int64_t horizon,
                                               std::uint64_t chunk_seed) {
  fault::ChurnStream stream(plan, n, seed);
  util::Rng chunk_rng(chunk_seed);
  std::vector<fault::ChurnEvent> out;
  std::int64_t to = 0;
  while (to < horizon) {
    to = std::min<std::int64_t>(horizon, to + 1 + static_cast<std::int64_t>(
                                                      chunk_rng.uniform_index(700)));
    stream.generate_until(to, out);
  }
  return out;
}

TEST(ChurnStream, ChunkInvariant) {
  const fault::FaultPlan plan = churn_plan(600.0);  // ~10 crashes/sec
  const std::vector<fault::ChurnEvent> whole =
      churn_in_one_call(plan, 32, 42, 100'000);
  ASSERT_FALSE(whole.empty());
  for (std::uint64_t chunk_seed = 1; chunk_seed <= 5; ++chunk_seed) {
    const std::vector<fault::ChurnEvent> sliced =
        churn_in_chunks(plan, 32, 42, 100'000, chunk_seed);
    EXPECT_EQ(whole, sliced) << "chunking changed the schedule (seed "
                             << chunk_seed << ")";
  }
  // A different master seed produces a different schedule.
  EXPECT_NE(whole, churn_in_one_call(plan, 32, 43, 100'000));
}

TEST(ChurnStream, AbsorbsArrivalsWhileDown) {
  const std::vector<fault::ChurnEvent> events =
      churn_in_one_call(churn_plan(300.0, 800.0), 16, 7, 50'000);
  ASSERT_GE(events.size(), 2U);
  std::vector<std::int64_t> down_until(16, -1);
  for (std::size_t i = 0; i + 1 < events.size(); i += 2) {
    const fault::ChurnEvent& crash = events[i];
    const fault::ChurnEvent& recover = events[i + 1];
    EXPECT_GT(crash.slot, down_until[crash.device])
        << "crash emitted while the device was still down";
    down_until[crash.device] = recover.slot;
  }
}

TEST(ChurnStream, EmissionPairsCrashThenRecover) {
  const std::vector<fault::ChurnEvent> events =
      churn_in_one_call(churn_plan(300.0), 16, 9, 30'000);
  ASSERT_GE(events.size(), 2U);
  for (std::size_t i = 0; i < events.size(); i += 2) {
    ASSERT_LT(i + 1, events.size());
    EXPECT_TRUE(events[i].crash);
    EXPECT_FALSE(events[i + 1].crash);
    EXPECT_EQ(events[i].device, events[i + 1].device);
    EXPECT_LT(events[i].slot, events[i + 1].slot);
  }
}

TEST(ChurnStream, StopsAtChurnStop) {
  fault::FaultPlan plan = churn_plan(6'000.0);
  plan.churn_stop_ms = 5'000.0;
  const std::vector<fault::ChurnEvent> events =
      churn_in_one_call(plan, 32, 3, 200'000);
  ASSERT_FALSE(events.empty());
  for (const fault::ChurnEvent& e : events) {
    if (e.crash) {
      EXPECT_LT(e.slot, 5'000);
    }
  }
  // Chunk-invariance holds across the stop boundary too.
  EXPECT_EQ(events, churn_in_chunks(plan, 32, 3, 200'000, 2));
}

TEST(FadeStream, ChunkInvariant) {
  fault::FaultPlan plan;
  plan.fade_rate_per_min = 1'200.0;
  plan.fade_mean_duration_ms = 300.0;
  fault::FadeStream whole_stream(plan, 24, 42);
  std::vector<fault::FadeEpisode> whole;
  whole_stream.generate_until(80'000, whole);
  ASSERT_FALSE(whole.empty());

  fault::FadeStream sliced_stream(plan, 24, 42);
  std::vector<fault::FadeEpisode> sliced;
  for (std::int64_t to = 0; to < 80'000;) {
    to = std::min<std::int64_t>(80'000, to + 333);
    sliced_stream.generate_until(to, sliced);
  }
  EXPECT_EQ(whole, sliced);
  for (const fault::FadeEpisode& f : whole) {
    EXPECT_LT(f.u, f.v);
    EXPECT_LT(f.start_slot, f.end_slot);
  }
}

// --- satellite: horizon validation -----------------------------------------

TEST(ValidateServiceHorizon, AcceptsFaultFreeAndOpenEndedPlans) {
  EXPECT_EQ(fault::validate_service_horizon(fault::FaultPlan{}, 1'000'000), "");
  EXPECT_EQ(fault::validate_service_horizon(churn_plan(30.0), 1'000'000), "");
}

TEST(ValidateServiceHorizon, RejectsChurnStopBeforeHorizon) {
  fault::FaultPlan plan = churn_plan(30.0);
  plan.churn_stop_ms = 10'000.0;
  const std::string error = fault::validate_service_horizon(plan, 1'000'000);
  EXPECT_NE(error.find("churn stops at 10000 ms"), std::string::npos) << error;
  EXPECT_NE(error.find("1000000"), std::string::npos) << error;
  // A stop at/past the horizon is fine.
  plan.churn_stop_ms = 1'000'000.0;
  EXPECT_EQ(fault::validate_service_horizon(plan, 1'000'000), "");
}

}  // namespace
