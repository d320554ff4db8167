// firefly_cli.cpp — scriptable front-end for arbitrary scenario runs.
//
//   firefly_cli --protocol st --n 400 --seed 3 --trials 5
//   firefly_cli --protocol both --n 200 --area fixed --epsilon 0.1
//   firefly_cli --protocol st --n 60 --mobility 1.5 --periods 100
//
// The full flag table lives in `kFlagSpecs` below — the single source that
// generates `--help` AND validates every parsed flag, so the help text can
// no longer drift from what the binary actually accepts.  Run with --help
// for the current table and the live protocol registry.
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "core/trace.hpp"
#include "core/wire.hpp"
#include "obs/span.hpp"
#include "proto/registry.hpp"
#include "obs/telemetry.hpp"
#include "sim/soak.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

/// What a value flag's value must parse as, in full.  A count is an
/// integer that must not be negative.
enum class Kind { kText, kReal, kInteger, kCount };

/// One CLI flag: the single source of truth for `--help` and for rejecting
/// unknown flags and bad values.  `arg` is the value placeholder (nullptr
/// for booleans), `group` batches related flags under one heading in the
/// help output, and `kind` says how the value must parse.
struct FlagSpec {
  const char* name;
  const char* arg;   // nullptr: bare boolean flag
  const char* help;  // one line, defaults in brackets
  int group;
  Kind kind = Kind::kText;
};

constexpr const char* kFlagGroups[] = {
    "scenario",
    "fault injection (any non-zero knob turns the subsystem on)",
    "service mode (long-lived soak; see DESIGN.md \"Service mode\")",
    "observability (see DESIGN.md \"Observability\")",
    "general",
};

constexpr FlagSpec kFlagSpecs[] = {
    {"protocol", "NAME|both|all", "registered protocol, or a shorthand [both]", 0},
    {"n", "DEVICES", "population size [50]", 0, Kind::kCount},
    {"seed", "U64", "base RNG seed; trial t runs with seed+t [1]", 0, Kind::kInteger},
    {"trials", "COUNT", "independent trials per protocol [1]", 0, Kind::kCount},
    {"area", "scaled|fixed", "deployment area policy [scaled]", 0},
    {"epsilon", "E", "PRC coupling strength [0.05]", 0, Kind::kReal},
    {"period", "SLOTS", "firing period in 1 ms slots [100]", 0, Kind::kCount},
    {"periods", "MAX", "horizon in firing periods [400]", 0, Kind::kCount},
    {"mobility", "MPS", "random-waypoint speed, 0 = static [0]", 0, Kind::kReal},
    {"csv", "PATH", "append the result table as CSV rows", 0},
    {"churn", "PER_MIN", "crash rate [0]", 1, Kind::kReal},
    {"downtime", "MS", "mean downtime before recovery [2000]", 1, Kind::kReal},
    {"churn-stop", "MS", "stop churn after this instant [-1 = never]", 1, Kind::kReal},
    {"drift", "PPM", "max oscillator drift [0]", 1, Kind::kReal},
    {"drop", "P", "i.i.d. reception drop probability [0]", 1, Kind::kReal},
    {"fade-rate", "PER_MIN", "deep-fade episode rate [0]", 1, Kind::kReal},
    {"fade-ms", "MS", "mean fade duration [500]", 1, Kind::kReal},
    {"fade-depth", "DB", "fade attenuation depth [60]", 1, Kind::kReal},
    {"service", nullptr, "one open-ended soak instead of the trial loop", 2},
    {"duration-slots", "N", "soak horizon in 1 ms slots [1000000]", 2, Kind::kCount},
    {"window-slots", "N", "telemetry window length [1000]", 2, Kind::kCount},
    {"snapshot-every", "SLOTS", "rollback-snapshot cadence [0 = never]", 2, Kind::kCount},
    {"dedup-clear-periods", "N", "ST dedup-set prune cadence in periods [8]", 2, Kind::kCount},
    {"relabel-cap", "N", "headless re-elections per period, 0 = unlimited [8]", 2, Kind::kCount},
    {"soak-out", "PATH", "stream firefly-soak-v1 JSONL windows", 2},
    {"telemetry", nullptr, "print a metric-registry summary after the runs", 3},
    {"trace-chrome", "PATH", "Chrome trace-event file (load in ui.perfetto.dev)", 3},
    {"metrics-out", "PATH", "JSONL: run-metrics per trial + registry snapshot", 3},
    {"trace-csv", "PATH", "protocol milestone trace (fires, merges, ...)", 3},
    {"trace-capacity", "N", "ring-buffer the milestone trace [0 = unlimited]", 3, Kind::kCount},
    {"help", nullptr, "print this flag table and the protocol registry", 4},
};

void print_help(const firefly::util::Flags& flags) {
  using namespace firefly;
  std::cout << "usage: " << flags.program() << " [--flag value ...]\n";
  for (std::size_t g = 0; g < std::size(kFlagGroups); ++g) {
    std::cout << kFlagGroups[g] << ":\n";
    for (const FlagSpec& spec : kFlagSpecs) {
      if (static_cast<std::size_t>(spec.group) != g) continue;
      std::string left = std::string("--") + spec.name;
      if (spec.arg != nullptr) left += std::string(" <") + spec.arg + ">";
      std::cout << "  " << left;
      for (std::size_t pad = left.size(); pad < 30; ++pad) std::cout << ' ';
      std::cout << spec.help << '\n';
    }
  }
  std::cout << "protocols (from proto::Registry):\n";
  for (const std::string& name : proto::Registry::instance().names()) {
    const proto::ProtocolInfo* info = proto::Registry::instance().find(name);
    std::cout << "  " << name << " — " << info->summary << '\n';
  }
}

/// Reject flags outside the table — a typo must not silently run defaults.
bool reject_unknown_flags(const firefly::util::Flags& flags) {
  bool ok = true;
  for (const std::string& name : flags.names()) {
    const bool known =
        std::any_of(std::begin(kFlagSpecs), std::end(kFlagSpecs),
                    [&](const FlagSpec& spec) { return name == spec.name; });
    if (!known) {
      std::cerr << "unknown flag '--" << name << "' (see --help)\n";
      ok = false;
    }
  }
  return ok;
}

/// Whether `value` parses in full as `kind` (`Flags::get` would silently
/// read "12x" as 12 and "abc" as 0).
bool parses_in_full(const std::string& value, Kind kind) {
  if (kind == Kind::kText) return true;
  char* end = nullptr;
  errno = 0;
  if (kind == Kind::kReal) {
    (void)std::strtod(value.c_str(), &end);
  } else {
    (void)std::strtoll(value.c_str(), &end, 10);
  }
  return errno == 0 && end != value.c_str() && *end == '\0';
}

/// Reject bad values before anything runs: a value flag without a value
/// or with one that does not parse would run its default, a negative count
/// would wrap to a huge unsigned value (an endless run or an allocation
/// failure), a zero period has no slot to fire in, ids and counters travel
/// in 16-bit wire fields (0xFFFF is the invalid id), a coupling ε ≤ 0
/// breaks the Mirollo–Strogatz condition, and an unknown area policy is a
/// typo.
bool reject_bad_values(const firefly::util::Flags& flags) {
  bool ok = true;
  for (const FlagSpec& spec : kFlagSpecs) {
    if (spec.arg == nullptr || !flags.has(spec.name)) continue;
    const std::string value = flags.get(spec.name, std::string());
    if (value.empty()) {
      std::cerr << "--" << spec.name << " needs a value <" << spec.arg << ">\n";
      ok = false;
    } else if (!parses_in_full(value, spec.kind)) {
      std::cerr << "--" << spec.name << " value '" << value << "' is not a number\n";
      ok = false;
    } else if (spec.kind == Kind::kCount && flags.get(spec.name, std::int64_t{0}) < 0) {
      std::cerr << "--" << spec.name << " must not be negative\n";
      ok = false;
    }
  }
  if (!ok) return false;
  if (flags.get("n", std::int64_t{0}) >= firefly::core::kInvalidId) {
    std::cerr << "--n must be below 65535 (device ids are 16-bit)\n";
    ok = false;
  }
  const std::int64_t period = flags.get("period", std::int64_t{1});
  if (period == 0) {
    std::cerr << "--period must be at least 1 slot\n";
    ok = false;
  } else if (period > 65'536) {
    std::cerr << "--period must be at most 65536 slots (counters are 16-bit)\n";
    ok = false;
  }
  if (flags.has("epsilon") && !(flags.get("epsilon", 0.0) > 0.0)) {
    std::cerr << "--epsilon must be positive\n";
    ok = false;
  }
  if (flags.has("area")) {
    const std::string area = flags.get("area", std::string());
    if (area != "scaled" && area != "fixed") {
      std::cerr << "--area must be 'scaled' or 'fixed', not '" << area << "'\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace firefly;
  const util::Flags flags(argc, argv);

  if (flags.has("help")) {
    print_help(flags);
    return 0;
  }
  if (!reject_unknown_flags(flags) || !reject_bad_values(flags)) return 2;

  core::ScenarioConfig base;
  base.n = static_cast<std::size_t>(flags.get("n", std::int64_t{50}));
  base.seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{1}));
  base.area_policy = flags.get("area", std::string("scaled")) == "fixed"
                         ? core::AreaPolicy::kFixed
                         : core::AreaPolicy::kDensityScaled;
  base.protocol.prc.epsilon = flags.get("epsilon", 0.05);
  base.protocol.period_slots =
      static_cast<std::uint32_t>(flags.get("period", std::int64_t{100}));
  base.protocol.max_periods =
      static_cast<std::uint32_t>(flags.get("periods", std::int64_t{400}));
  base.protocol.mobility_speed_mps = flags.get("mobility", 0.0);
  fault::FaultPlan& faults = base.protocol.faults;
  faults.churn_rate_per_min = flags.get("churn", 0.0);
  faults.mean_downtime_ms = flags.get("downtime", faults.mean_downtime_ms);
  faults.churn_stop_ms = flags.get("churn-stop", faults.churn_stop_ms);
  faults.drift_max_ppm = flags.get("drift", 0.0);
  faults.drop_probability = flags.get("drop", 0.0);
  faults.fade_rate_per_min = flags.get("fade-rate", 0.0);
  faults.fade_mean_duration_ms = flags.get("fade-ms", faults.fade_mean_duration_ms);
  faults.fade_depth_db = flags.get("fade-depth", faults.fade_depth_db);
  const auto trials = static_cast<std::size_t>(flags.get("trials", std::int64_t{1}));

  // --- observability wiring (all optional, all off by default) ---
  const std::string trace_chrome = flags.get("trace-chrome", std::string());
  const std::string metrics_out = flags.get("metrics-out", std::string());
  const std::string trace_csv = flags.get("trace-csv", std::string());
  const auto trace_capacity =
      static_cast<std::size_t>(flags.get("trace-capacity", std::int64_t{0}));
  const bool telemetry_on =
      flags.has("telemetry") || !trace_chrome.empty() || !metrics_out.empty();

  obs::Telemetry telemetry;  // one context across every trial of this invocation
  obs::SpanSink spans;
  core::TraceSink trace;
  core::RunHooks hooks;
  if (telemetry_on) {
    hooks.telemetry = &telemetry;
    if (!trace_chrome.empty()) telemetry.attach_spans(&spans);
  }
  if (!trace_csv.empty()) {
    trace.set_capacity(trace_capacity);
    if (telemetry_on) trace.set_drop_counter(&telemetry.registry().counter("trace.dropped"));
    hooks.trace = &trace;
  }
  std::ofstream metrics_ofs;
  if (!metrics_out.empty()) {
    metrics_ofs.open(metrics_out, std::ios::binary | std::ios::trunc);
    if (!metrics_ofs) {
      std::cerr << "cannot open --metrics-out '" << metrics_out << "'\n";
      return 2;
    }
  }

  // --protocol resolves through the registry: any registered name runs, the
  // "both"/"all" multi-run shorthands expand here, and anything else is an
  // error listing what IS registered — a typo must not silently run the
  // default pair.
  const proto::Registry& registry = proto::Registry::instance();
  const std::string protocol_arg = flags.get("protocol", std::string("both"));
  std::vector<core::Protocol> protocols;
  if (protocol_arg == "both") {
    protocols = {core::Protocol::kFst, core::Protocol::kSt};
  } else if (protocol_arg == "all") {
    for (const std::string& name : registry.names()) {
      protocols.push_back(registry.find(name)->id);
    }
  } else if (const proto::ProtocolInfo* info = registry.find(protocol_arg)) {
    protocols = {info->id};
  } else {
    std::cerr << "unknown --protocol '" << protocol_arg << "' (registered:";
    for (const std::string& name : registry.names()) std::cerr << ' ' << name;
    std::cerr << "; shorthands: both, all)\n";
    return 2;
  }

  // Shared tail: telemetry summary, metrics JSONL trailer, trace exports.
  // Used by both the trials path and the service-soak path.
  const auto finish_observability = [&]() -> int {
    if (flags.has("telemetry")) {
      util::Table summary("telemetry (all trials of this invocation)");
      summary.set_headers({"metric", "count", "mean", "p50", "p90", "p99", "max"});
      for (const auto& [name, c] : telemetry.registry().counters()) {
        summary.add_row({name, util::Table::num(static_cast<std::size_t>(c.value())), "-",
                         "-", "-", "-", "-"});
      }
      for (const auto& [name, h] : telemetry.registry().histograms()) {
        summary.add_row({name, util::Table::num(static_cast<std::size_t>(h.count())),
                         util::Table::num(h.mean(), 2), util::Table::num(h.quantile(0.5), 2),
                         util::Table::num(h.quantile(0.9), 2),
                         util::Table::num(h.quantile(0.99), 2),
                         util::Table::num(h.max(), 2)});
      }
      summary.print(std::cout);
    }
    if (metrics_ofs.is_open()) {
      obs::JsonWriter w(metrics_ofs);
      w.begin_object();
      w.key("telemetry");
      telemetry.registry().write_json(w);
      // Loss visibility: a long soak that overwrote milestone-trace events
      // or rotated histogram reservoirs must say so in the machine-readable
      // output, not just on stdout.
      w.field("trace_events", static_cast<std::uint64_t>(trace.events().size()));
      w.field("trace_dropped", trace.dropped());
      w.key("histogram_samples");
      w.begin_object();
      for (const auto& [name, h] : telemetry.registry().histograms()) {
        w.field(name, static_cast<std::uint64_t>(h.count()));
      }
      w.end_object();
      w.end_object();
      metrics_ofs << '\n';
      std::cout << "(metrics JSONL written to " << metrics_out << ")\n";
    }
    if (!trace_chrome.empty()) {
      if (spans.write_chrome_trace(trace_chrome)) {
        std::cout << "(Chrome trace written to " << trace_chrome << " — load in "
                  << "chrome://tracing or https://ui.perfetto.dev; " << spans.size()
                  << " spans, " << spans.dropped() << " dropped)\n";
      } else {
        std::cerr << "cannot open --trace-chrome '" << trace_chrome << "'\n";
        return 2;
      }
    }
    if (!trace_csv.empty()) {
      trace.write_csv(trace_csv);
      std::cout << "(milestone trace written to " << trace_csv << "; "
                << trace.events().size() << " events buffered, " << trace.dropped()
                << " overwritten)\n";
    }
    return 0;
  };

  // --- long-lived service mode: one open-ended soak, not a trial loop ---
  if (flags.has("service")) {
    core::ServiceConfig service;
    service.duration_slots = flags.get("duration-slots", service.duration_slots);
    service.window_slots = flags.get("window-slots", service.window_slots);
    service.snapshot_every_slots =
        flags.get("snapshot-every", service.snapshot_every_slots);
    service.dedup_clear_periods = static_cast<std::uint32_t>(flags.get(
        "dedup-clear-periods", static_cast<std::int64_t>(service.dedup_clear_periods)));
    service.relabel_cap_per_period = static_cast<std::uint32_t>(flags.get(
        "relabel-cap", static_cast<std::int64_t>(service.relabel_cap_per_period)));
    const core::Protocol protocol =
        protocols.size() == 1 ? protocols.front() : core::Protocol::kSt;

    const std::string soak_out = flags.get("soak-out", std::string());
    std::ofstream soak_ofs;
    if (!soak_out.empty()) {
      soak_ofs.open(soak_out, std::ios::binary | std::ios::trunc);
      if (!soak_ofs) {
        std::cerr << "cannot open --soak-out '" << soak_out << "'\n";
        return 2;
      }
      obs::JsonWriter w(soak_ofs);
      core::write_soak_header_json(w, protocol, base, service);
      soak_ofs << '\n';
    }
    sim::SoakRecorder recorder;
    if (soak_ofs.is_open()) {
      recorder.set_consumer([&soak_ofs](const sim::SoakWindow& win) {
        obs::JsonWriter w(soak_ofs);
        core::write_soak_window_json(w, win);
        soak_ofs << '\n';
      });
    }

    const core::ServiceReport report =
        core::run_service_trial(protocol, base, service, hooks, &recorder);
    if (!report.ok()) {
      std::cerr << "service mode rejected: " << report.error << '\n';
      return 2;
    }
    if (soak_ofs.is_open()) {
      obs::JsonWriter w(soak_ofs);
      core::write_soak_summary_json(w, report);
      soak_ofs << '\n';
      std::cout << "(soak JSONL written to " << soak_out << ")\n";
    }
    if (metrics_ofs.is_open()) {
      obs::JsonWriter w(metrics_ofs);
      w.begin_object();
      w.field("protocol", core::to_string(protocol));
      w.field("service", true);
      w.field("seed", base.seed);
      w.key("run");
      core::write_run_metrics_json(w, report.metrics);
      w.end_object();
      metrics_ofs << '\n';
    }

    util::Table soak_table("service soak: n=" + std::to_string(base.n) + ", " +
                           std::to_string(service.duration_slots) + " slots");
    soak_table.set_headers({"protocol", "windows", "dropped", "snapshots", "crashes",
                            "recoveries", "sync uptime", "relabels", "suppressed",
                            "events", "arena hwm"});
    soak_table.add_row(
        {core::to_string(protocol),
         util::Table::num(static_cast<std::size_t>(report.windows)),
         util::Table::num(static_cast<std::size_t>(report.windows_dropped)),
         util::Table::num(static_cast<std::size_t>(report.snapshots)),
         util::Table::num(static_cast<std::size_t>(report.metrics.crashes)),
         util::Table::num(static_cast<std::size_t>(report.metrics.recoveries)),
         util::Table::num(report.metrics.sync_uptime, 3),
         util::Table::num(static_cast<std::size_t>(report.relabels)),
         util::Table::num(static_cast<std::size_t>(report.relabels_suppressed)),
         util::Table::num(static_cast<std::size_t>(report.metrics.events_processed)),
         util::Table::num(static_cast<std::size_t>(report.arena_high_water))});
    soak_table.print(std::cout);
    return finish_observability();
  }

  util::Table table("firefly-d2d run: n=" + std::to_string(base.n) + ", " +
                    std::to_string(trials) + " trial(s)");
  table.set_headers({"protocol", "converged", "time ms (mean)", "sync ms", "discovery ms",
                     "msgs", "RACH2", "collisions", "energy/dev mJ", "neighbors"});
  util::Table resilience("resilience (fault-injection observables)");
  resilience.set_headers({"protocol", "crashes", "recoveries", "fault drops", "resyncs",
                          "mean resync ms", "sync uptime", "in-sync end", "repair msgs",
                          "alive", "partitioned"});

  for (const core::Protocol protocol : protocols) {
    util::Sample time_ms, sync_ms, disc_ms, msgs, rach2, collisions, energy, neighbors;
    util::Sample crashes, recoveries, drops, resyncs, resync_ms, uptime, repair, alive;
    std::size_t converged = 0, in_sync = 0, partitioned = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      core::ScenarioConfig config = base;
      config.seed = base.seed + t;
      const core::RunMetrics m = core::run_trial(protocol, config, hooks);
      if (metrics_ofs.is_open()) {
        obs::JsonWriter w(metrics_ofs);
        w.begin_object();
        w.field("protocol", core::to_string(protocol));
        w.field("trial", static_cast<std::uint64_t>(t));
        w.field("seed", config.seed);
        w.key("run");
        core::write_run_metrics_json(w, m);
        w.end_object();
        metrics_ofs << '\n';
      }
      if (m.converged) {
        ++converged;
        time_ms.add(m.convergence_ms);
        sync_ms.add(m.sync_ms);
        disc_ms.add(m.discovery_ms);
      }
      msgs.add(static_cast<double>(m.total_messages()));
      rach2.add(static_cast<double>(m.rach2_messages));
      collisions.add(static_cast<double>(m.collisions));
      energy.add(m.mean_device_energy_mj);
      neighbors.add(m.mean_neighbors_discovered);
      crashes.add(static_cast<double>(m.crashes));
      recoveries.add(static_cast<double>(m.recoveries));
      drops.add(static_cast<double>(m.fault_drops));
      resyncs.add(static_cast<double>(m.resyncs));
      resync_ms.add(m.mean_resync_ms);
      uptime.add(m.sync_uptime);
      repair.add(static_cast<double>(m.repair_messages));
      alive.add(static_cast<double>(m.alive_at_end));
      if (m.in_sync_at_end) ++in_sync;
      if (m.partitioned) ++partitioned;
    }
    table.add_row({core::to_string(protocol),
                   util::Table::num(converged) + "/" + util::Table::num(trials),
                   util::Table::num(time_ms.count() ? time_ms.mean() : 0.0, 1),
                   util::Table::num(sync_ms.count() ? sync_ms.mean() : 0.0, 1),
                   util::Table::num(disc_ms.count() ? disc_ms.mean() : 0.0, 1),
                   util::Table::num(msgs.mean(), 0), util::Table::num(rach2.mean(), 0),
                   util::Table::num(collisions.mean(), 0),
                   util::Table::num(energy.mean(), 1),
                   util::Table::num(neighbors.mean(), 1)});
    resilience.add_row({core::to_string(protocol), util::Table::num(crashes.mean(), 1),
                        util::Table::num(recoveries.mean(), 1),
                        util::Table::num(drops.mean(), 0),
                        util::Table::num(resyncs.mean(), 1),
                        util::Table::num(resync_ms.mean(), 0),
                        util::Table::num(uptime.mean(), 3),
                        util::Table::num(in_sync) + "/" + util::Table::num(trials),
                        util::Table::num(repair.mean(), 0),
                        util::Table::num(alive.mean(), 1),
                        util::Table::num(partitioned) + "/" + util::Table::num(trials)});
  }
  table.print(std::cout);
  if (base.protocol.faults.enabled()) resilience.print(std::cout);

  const std::string csv = flags.get("csv", std::string());
  if (!csv.empty()) {
    table.write_csv(csv);
    std::cout << "(results appended to " << csv << ")\n";
  }

  // --- observability output ---
  return finish_observability();
}
