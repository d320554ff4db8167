// Tests for the telemetry subsystem (src/obs/): JSON writer, metric
// registry, histograms, span sink / Chrome trace, scoped timers, progress
// reporting, build info — and the two system-level guarantees: JSONL output
// is byte-deterministic across identical seeded runs, and attaching
// telemetry leaves RunMetrics bit-identical.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/trace.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/timer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace firefly;

// --- JsonWriter ---

TEST(JsonWriter, ObjectsArraysAndSeparators) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("a", std::uint64_t{1});
  w.field("b", "x");
  w.key("c").begin_array();
  w.value(std::uint64_t{1}).value(std::uint64_t{2});
  w.end_array();
  w.key("d").begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(out.str(), R"({"a":1,"b":"x","c":[1,2],"d":{}})");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(obs::JsonWriter::escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(obs::JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, DoubleFormattingIsShortestRoundTrip) {
  EXPECT_EQ(obs::JsonWriter::format_double(0.0), "0");
  EXPECT_EQ(obs::JsonWriter::format_double(2.5), "2.5");
  EXPECT_EQ(obs::JsonWriter::format_double(0.1), "0.1");
  EXPECT_EQ(obs::JsonWriter::format_double(-3.0), "-3");
  EXPECT_EQ(obs::JsonWriter::format_double(std::nan("")), "null");
  EXPECT_EQ(obs::JsonWriter::format_double(INFINITY), "null");
}

TEST(JsonWriter, BoolAndNegativeValues) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("t", true);
  w.field("f", false);
  w.field("i", std::int64_t{-5});
  w.end_object();
  EXPECT_EQ(out.str(), R"({"t":true,"f":false,"i":-5})");
}

// --- Histogram ---

TEST(Histogram, EmptyReportsZeros) {
  obs::Histogram h({1.0, 10.0});
  EXPECT_EQ(h.count(), 0U);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleSampleQuantilesAreExact) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(7.0);
  // Quantiles clamp to the observed [min, max], so one sample reports
  // itself exactly at every q.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 7.0);
  EXPECT_DOUBLE_EQ(h.min(), 7.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
}

TEST(Histogram, OverflowBucketCatchesLargeSamples) {
  obs::Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(1e9);  // beyond the last bound
  ASSERT_EQ(h.bucket_counts().size(), 3U);
  EXPECT_EQ(h.bucket_counts()[0], 1U);
  EXPECT_EQ(h.bucket_counts()[1], 1U);
  EXPECT_EQ(h.bucket_counts()[2], 1U);  // overflow
  // The overflow quantile clamps to the observed max, not infinity.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e9);
  EXPECT_EQ(h.count(), 3U);
}

TEST(Histogram, QuantilesInterpolateWithinBuckets) {
  obs::Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);    // all in first bucket
  for (int i = 0; i < 100; ++i) h.observe(15.0);   // all in second
  const double p25 = h.quantile(0.25);
  const double p75 = h.quantile(0.75);
  EXPECT_GE(p25, 5.0);
  EXPECT_LE(p25, 10.0);
  EXPECT_GE(p75, 10.0);
  EXPECT_LE(p75, 15.0);
  EXPECT_LE(p25, p75);
}

TEST(Histogram, ExponentialBucketFactory) {
  const obs::Histogram h = obs::Histogram::exponential(1.0, 2.0, 4);
  ASSERT_EQ(h.bounds().size(), 4U);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[1], 2.0);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 4.0);
  EXPECT_DOUBLE_EQ(h.bounds()[3], 8.0);
}

// --- Registry ---

TEST(Registry, FindOrCreateReturnsStableReferences) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("alpha");
  a.inc(3);
  // Creating more metrics must not invalidate the first reference.
  for (int i = 0; i < 100; ++i) registry.counter("c" + std::to_string(i));
  obs::Counter& a2 = registry.counter("alpha");
  EXPECT_EQ(&a, &a2);
  EXPECT_EQ(a2.value(), 3U);
}

TEST(Registry, JsonExportIsNameOrdered) {
  obs::Registry registry;
  registry.counter("zeta").inc();
  registry.counter("alpha").inc(2);
  registry.gauge("mid").set(1.5);
  registry.histogram("h", {1.0}).observe(0.5);
  std::ostringstream out;
  obs::JsonWriter w(out);
  registry.write_json(w);
  const std::string json = out.str();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// --- SpanSink / Chrome trace ---

TEST(SpanSink, RingOverwritesOldestAndCountsDrops) {
  obs::SpanSink sink(2);
  for (int i = 0; i < 5; ++i) {
    sink.add({obs::SpanId::kSlotDelivery, 0, i * 1000, 100, -1.0});
  }
  EXPECT_EQ(sink.size(), 2U);
  EXPECT_EQ(sink.dropped(), 3U);
  const auto spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[0].start_ns, 3000);
  EXPECT_EQ(spans[1].start_ns, 4000);
}

TEST(SpanSink, ChromeTraceShape) {
  obs::SpanSink sink;
  sink.add({obs::SpanId::kPcoUpdate, 2, 1'500, 2'000, 42.0});
  std::ostringstream out;
  sink.write_chrome_trace(out);
  const std::string trace = out.str();
  // Times are microseconds in the trace-event format.
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"pco_update\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":1.5"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":2"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(trace.find("\"sim_ms\":42"), std::string::npos);
}

TEST(SpanSink, SpanNamesAreStable) {
  EXPECT_STREQ(obs::span_name(obs::SpanId::kSlotDelivery), "slot_delivery");
  EXPECT_STREQ(obs::span_name(obs::SpanId::kPcoUpdate), "pco_update");
  EXPECT_STREQ(obs::span_name(obs::SpanId::kHConnect), "h_connect");
  EXPECT_STREQ(obs::span_name(obs::SpanId::kMerge), "fragment_merge");
  EXPECT_STREQ(obs::span_name(obs::SpanId::kTrial), "trial");
}

// --- Telemetry + ScopedTimer ---

TEST(Telemetry, RecordSpanFeedsHistogramCounterAndSink) {
  obs::Telemetry telemetry;
  obs::SpanSink sink;
  telemetry.attach_spans(&sink);
  {
    const obs::ScopedTimer timer(&telemetry, obs::SpanId::kHConnect, 3.0);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(telemetry.registry().counter("span.h_connect.calls").value(), 1U);
  const obs::Histogram& h =
      telemetry.registry().histogram("span.h_connect.us", {});
  EXPECT_EQ(h.count(), 1U);
  EXPECT_GT(h.sum(), 0.0);
  ASSERT_EQ(sink.size(), 1U);
  EXPECT_DOUBLE_EQ(sink.snapshot()[0].sim_ms, 3.0);
}

TEST(Telemetry, NullContextTimerIsANoOp) {
  // Must not crash or allocate; the instrumented hot paths rely on this.
  for (int i = 0; i < 1000; ++i) {
    const obs::ScopedTimer timer(nullptr, obs::SpanId::kSlotDelivery, 1.0);
  }
  SUCCEED();
}

TEST(Telemetry, CountAndObserveAreFindOrCreate) {
  obs::Telemetry telemetry;
  telemetry.count("events", 2);
  telemetry.count("events");
  telemetry.observe("sizes", {1.0, 10.0}, 5.0);
  telemetry.observe("sizes", {99.0}, 7.0);  // bounds ignored after creation
  EXPECT_EQ(telemetry.registry().counter("events").value(), 3U);
  const obs::Histogram& h = telemetry.registry().histogram("sizes", {});
  EXPECT_EQ(h.count(), 2U);
  ASSERT_EQ(h.bounds().size(), 2U);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
}

// --- ProgressReporter ---

TEST(Progress, ReportsAndFinishes) {
  std::ostringstream out;
  obs::ProgressReporter progress("test", 4, std::chrono::milliseconds(0), &out);
  progress.advance();
  progress.advance(3);
  EXPECT_EQ(progress.done(), 4U);
  progress.finish();
  progress.finish();  // idempotent
  const std::string text = out.str();
  EXPECT_NE(text.find("[test]"), std::string::npos);
  EXPECT_NE(text.find("4/4"), std::string::npos);
  EXPECT_EQ(text.find("5/4"), std::string::npos);
}

// --- BuildInfo ---

TEST(BuildInfo, FieldsAreNonEmpty) {
  const obs::BuildInfo info = obs::build_info();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.build_type.empty());
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  obs::write_build_info_fields(w);
  w.end_object();
  EXPECT_NE(out.str().find("\"git_sha\":\""), std::string::npos);
}

// --- system-level guarantees ---

core::ScenarioConfig small_scenario() {
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 33;
  config.area_policy = core::AreaPolicy::kFixed;
  return config;
}

TEST(ObsInvariance, TelemetryOffRunMetricsAreBitIdentical) {
  const core::ScenarioConfig config = small_scenario();
  for (const core::Protocol protocol :
       {core::Protocol::kSt, core::Protocol::kFst, core::Protocol::kBirthday}) {
    const core::RunMetrics bare = core::run_trial(protocol, config);

    obs::Telemetry telemetry;
    obs::SpanSink spans;
    telemetry.attach_spans(&spans);
    core::TraceSink trace;
    const core::RunMetrics observed =
        core::run_trial(protocol, config, core::RunHooks{&trace, &telemetry});

    // Field-wise equality via the defaulted operator==: attaching the full
    // observability stack must not perturb a single reported number.
    EXPECT_TRUE(bare == observed) << "protocol " << core::to_string(protocol);
    // ...and the observers did actually observe something.
    EXPECT_GT(telemetry.registry().counter("engine.fires").value(), 0U);
    EXPECT_GT(spans.size(), 0U);
  }
}

std::string run_metrics_json(const core::RunMetrics& metrics) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  core::write_run_metrics_json(w, metrics);
  return out.str();
}

TEST(ObsDeterminism, RunMetricsJsonIsByteIdenticalAcrossReruns) {
  const core::ScenarioConfig config = small_scenario();
  const std::string first =
      run_metrics_json(core::run_trial(core::Protocol::kSt, config));
  const std::string second =
      run_metrics_json(core::run_trial(core::Protocol::kSt, config));
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Spot-check the stable key order.
  EXPECT_LT(first.find("\"converged\""), first.find("\"convergence_ms\""));
  EXPECT_LT(first.find("\"convergence_ms\""), first.find("\"simulated_ms\""));
}

TEST(ObsDeterminism, SweepPointJsonIsByteIdenticalAcrossReruns) {
  core::SweepConfig sweep_config;
  sweep_config.ns = {20};
  sweep_config.trials = 2;
  sweep_config.base.area_policy = core::AreaPolicy::kFixed;
  auto render = [&] {
    const auto points = core::sweep(core::Protocol::kSt, sweep_config);
    std::ostringstream out;
    obs::JsonWriter w(out);
    core::write_sweep_point_json(w, points.at(0), core::Protocol::kSt, "test");
    return out.str();
  };
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"bench\":\"test\""), std::string::npos);
  EXPECT_NE(first.find("\"protocol\":\"ST\""), std::string::npos);
}

TEST(ObsDeterminism, SweepWithTelemetryMatchesSweepWithout) {
  core::SweepConfig sweep_config;
  sweep_config.ns = {20};
  sweep_config.trials = 2;
  sweep_config.base.area_policy = core::AreaPolicy::kFixed;

  const auto bare = core::sweep(core::Protocol::kSt, sweep_config);

  obs::Telemetry telemetry;
  std::ostringstream progress_out;
  obs::ProgressReporter progress("test", sweep_config.total_trials(),
                                 std::chrono::milliseconds(0), &progress_out);
  sweep_config.hooks.telemetry = &telemetry;
  sweep_config.hooks.progress = &progress;
  const auto observed = core::sweep(core::Protocol::kSt, sweep_config);

  ASSERT_EQ(bare.size(), observed.size());
  EXPECT_DOUBLE_EQ(bare[0].convergence_ms.mean(), observed[0].convergence_ms.mean());
  EXPECT_DOUBLE_EQ(bare[0].total_messages.mean(), observed[0].total_messages.mean());
  EXPECT_EQ(progress.done(), 2U);
  EXPECT_EQ(telemetry.registry().counter("span.trial.calls").value(), 2U);
}

TEST(ObsThreadSafety, PooledSweepsShareOneFreshTelemetry) {
  // Every trial of a pooled sweep resolves its metrics on one shared,
  // initially empty context: ST trials create "engine.fires" while their
  // siblings look it up, and DESYNC trials create and set the
  // "proto.desync.error" gauge concurrently.  Run under ThreadSanitizer
  // this is the race check; in any build the shared context must not
  // perturb the results.
  core::SweepConfig sweep_config;
  sweep_config.ns = {20, 24};
  sweep_config.trials = 4;
  sweep_config.base.area_policy = core::AreaPolicy::kFixed;
  const auto bare_st = core::sweep(core::Protocol::kSt, sweep_config);
  const auto bare_desync = core::sweep(core::Protocol::kDesync, sweep_config);

  obs::Telemetry telemetry;
  util::ThreadPool pool(4);
  sweep_config.hooks.telemetry = &telemetry;
  const auto st = core::sweep(core::Protocol::kSt, sweep_config, &pool);
  const auto desync = core::sweep(core::Protocol::kDesync, sweep_config, &pool);

  ASSERT_EQ(st.size(), bare_st.size());
  ASSERT_EQ(desync.size(), bare_desync.size());
  for (std::size_t i = 0; i < st.size(); ++i) {
    EXPECT_DOUBLE_EQ(st[i].convergence_ms.mean(), bare_st[i].convergence_ms.mean());
    EXPECT_DOUBLE_EQ(st[i].total_messages.mean(), bare_st[i].total_messages.mean());
    EXPECT_DOUBLE_EQ(desync[i].total_messages.mean(), bare_desync[i].total_messages.mean());
  }
  const obs::Registry& registry = telemetry.registry();
  EXPECT_EQ(registry.counters().at("span.trial.calls").value(),
            2 * sweep_config.total_trials());
  EXPECT_GT(registry.counters().at("engine.fires").value(), 0U);
  EXPECT_EQ(registry.gauges().count("proto.desync.error"), 1U);
}

TEST(ObsReport, EmptySampleJsonIsZeroSafe) {
  const util::Sample empty;
  std::ostringstream out;
  obs::JsonWriter w(out);
  core::write_sample_json(w, empty);
  EXPECT_EQ(out.str(),
            R"({"count":0,"mean":0,"stddev":0,"ci95":0,"p50":0,"p90":0,"p99":0})");
}

}  // namespace
