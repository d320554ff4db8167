// report.hpp — deterministic JSONL exporters for run and sweep results.
//
// These writers are the machine-readable counterpart of the stdout tables:
// one JSON object per line, keys in a fixed order, doubles rendered with
// shortest-round-trip formatting.  Two runs with the same seed produce
// byte-identical output, so bench JSONL files can be diffed and checked
// into golden tests.  Wall-clock quantities are deliberately excluded —
// anything time-of-day or machine-speed dependent belongs in the telemetry
// registry or the Chrome trace, not here.
#pragma once

#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "obs/json.hpp"
#include "sim/soak.hpp"
#include "util/stats.hpp"

namespace firefly::core {

/// Summary of a util::Sample as a JSON object:
/// {"count":..,"mean":..,"stddev":..,"ci95":..,"p50":..,"p90":..,"p99":..}.
/// An empty sample reports count 0 and zeros (matching util::Sample).
void write_sample_json(obs::JsonWriter& w, const util::Sample& sample);

/// Every RunMetrics field as a JSON object, in declaration order.
void write_run_metrics_json(obs::JsonWriter& w, const RunMetrics& metrics);

/// A memory ledger as one JSON object, {"<entry name>": bytes, ...,
/// "total": bytes}, entries in the ledger's order.
void write_memory_report_json(obs::JsonWriter& w, const MemoryReport& report);

/// One sweep point as a self-describing JSONL record:
/// {"bench":..,"protocol":..,"n":..,"trials":..,"failure_rate":..,
///  "convergence_ms":{..},"total_messages":{..},...}.
void write_sweep_point_json(obs::JsonWriter& w, const SweepPoint& point,
                            Protocol protocol, const char* bench);

// --- service-mode soak telemetry (schema "firefly-soak-v1") -----------------
// A soak file is JSONL: one header line identifying the run, then one line
// per telemetry window as the soak progresses (streamable: each line is
// complete the moment the window closes), then one summary line.  The same
// determinism contract as bench-v1 applies: same seed, same bytes.

/// Header: {"schema":"firefly-soak-v1",<build info>,"protocol":..,"n":..,
///          "seed":..,"duration_slots":..,"window_slots":..,
///          "snapshot_every_slots":..,"churn_rate_per_min":..,
///          "mean_downtime_ms":..}.
void write_soak_header_json(obs::JsonWriter& w, Protocol protocol,
                            const ScenarioConfig& config,
                            const ServiceConfig& service);

/// One telemetry window: {"window":{...every SoakWindow field...}}.
void write_soak_window_json(obs::JsonWriter& w, const sim::SoakWindow& window);

/// Trailing summary: {"summary":{"windows":..,"windows_dropped":..,
///  "snapshots":..,"relabels":..,"relabels_suppressed":..,
///  "arena_capacity":..,"arena_high_water":..,"metrics":{...}}}.
void write_soak_summary_json(obs::JsonWriter& w, const ServiceReport& report);

}  // namespace firefly::core
