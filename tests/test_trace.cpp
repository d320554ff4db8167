// Tests for structured run tracing (src/core/trace.hpp).
#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/scenario.hpp"
#include "proto/st.hpp"

namespace {

using namespace firefly;
using core::TraceKind;
using core::TraceSink;

TEST(TraceSink, RecordsAndCounts) {
  TraceSink sink;
  sink.record(1.0, 3, TraceKind::kFire, 0);
  sink.record(2.0, 4, TraceKind::kFire, 0);
  sink.record(3.0, 3, TraceKind::kMerge, 7, 9);
  EXPECT_EQ(sink.events().size(), 3U);
  EXPECT_EQ(sink.count(TraceKind::kFire), 2U);
  EXPECT_EQ(sink.count(TraceKind::kMerge), 1U);
  EXPECT_EQ(sink.count(TraceKind::kSync), 0U);
}

TEST(TraceSink, KindNames) {
  EXPECT_STREQ(to_string(TraceKind::kFire), "fire");
  EXPECT_STREQ(to_string(TraceKind::kMerge), "merge");
  EXPECT_STREQ(to_string(TraceKind::kSync), "sync");
}

TEST(TraceSink, CsvOutput) {
  TraceSink sink;
  sink.record(1.5, 2, TraceKind::kAdopt, 42);
  const std::string path = "/tmp/firefly_trace_test.csv";
  sink.write_csv(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "time_ms,device,kind,a,b");
  EXPECT_EQ(row, "1.5,2,adopt,42,0");
  std::remove(path.c_str());
}

TEST(TraceSink, RingKeepsMostRecentEventsAndCountsDrops) {
  TraceSink sink;
  sink.set_capacity(3);
  for (std::uint32_t i = 0; i < 7; ++i) {
    sink.record(static_cast<double>(i), i, TraceKind::kFire);
  }
  EXPECT_EQ(sink.events().size(), 3U);
  EXPECT_EQ(sink.dropped(), 4U);
  // snapshot() restores chronological order across the wrap point.
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 3U);
  EXPECT_EQ(events[0].device, 4U);
  EXPECT_EQ(events[1].device, 5U);
  EXPECT_EQ(events[2].device, 6U);
}

TEST(TraceSink, UnlimitedByDefault) {
  TraceSink sink;
  for (std::uint32_t i = 0; i < 1000; ++i) sink.record(0.0, i, TraceKind::kFire);
  EXPECT_EQ(sink.events().size(), 1000U);
  EXPECT_EQ(sink.dropped(), 0U);
}

TEST(TraceSink, DropCounterMirrorsIntoRegistry) {
  obs::Counter drops;
  TraceSink sink;
  sink.set_capacity(2);
  sink.set_drop_counter(&drops);
  for (std::uint32_t i = 0; i < 5; ++i) sink.record(0.0, i, TraceKind::kFire);
  EXPECT_EQ(sink.dropped(), 3U);
  EXPECT_EQ(drops.value(), 3U);
}

TEST(TraceSink, RingCsvIsChronological) {
  TraceSink sink;
  sink.set_capacity(2);
  for (std::uint32_t i = 0; i < 4; ++i) {
    sink.record(static_cast<double>(i), i, TraceKind::kFire);
  }
  const std::string path = "/tmp/firefly_trace_ring_test.csv";
  sink.write_csv(path);
  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  EXPECT_EQ(row1.substr(0, 1), "2");
  EXPECT_EQ(row2.substr(0, 1), "3");
  std::remove(path.c_str());
}

TEST(TraceIntegration, StRunEmitsProtocolMilestones) {
  core::ScenarioConfig config;
  config.n = 25;
  config.seed = 9;
  config.area_policy = core::AreaPolicy::kFixed;
  auto positions = core::deploy(config);
  proto::StEngine engine(std::move(positions), config.protocol, config.radio, config.seed);
  TraceSink sink;
  engine.set_trace(&sink);
  const auto metrics = engine.run();
  ASSERT_TRUE(metrics.converged);

  // Every device fires repeatedly.
  EXPECT_GE(sink.count(TraceKind::kFire), 25U);
  // 25 singletons need at least 24 merge events (each endpoint records).
  EXPECT_GE(sink.count(TraceKind::kMerge), 24U);
  // The convergence milestones appear exactly once.
  EXPECT_EQ(sink.count(TraceKind::kSync), 1U);
  EXPECT_EQ(sink.count(TraceKind::kDiscovery), 1U);
  // Phase adoptions happened during tree growth.
  EXPECT_GT(sink.count(TraceKind::kAdopt), 0U);
  // Events are time-ordered (the simulator is single-threaded).
  double prev = 0.0;
  for (const auto& e : sink.events()) {
    EXPECT_GE(e.time_ms, prev);
    prev = e.time_ms;
  }
}

TEST(TraceIntegration, DetachedSinkCostsNothingAndRecordsNothing) {
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 10;
  config.area_policy = core::AreaPolicy::kFixed;
  // No sink attached: run must behave identically (determinism covered by
  // other tests); here we simply check it does not crash and a second run
  // with a sink produces the same metrics.
  const auto bare = core::run_trial(core::Protocol::kSt, config);
  auto positions = core::deploy(config);
  proto::StEngine engine(std::move(positions), config.protocol, config.radio, config.seed);
  core::TraceSink sink;
  engine.set_trace(&sink);
  const auto traced = engine.run();
  EXPECT_EQ(bare.total_messages(), traced.total_messages());
  EXPECT_DOUBLE_EQ(bare.convergence_ms, traced.convergence_ms);
}

}  // namespace
