// measure.cpp — the benchmark's measuring program.
//
// Runs one workload through the simulator's public API and prints what it
// measured as JSON lines on stdout.  run.py generates the inputs that vary
// (seeds, sizes, repetition counts, the trace flag), aggregates the lines
// into metrics and checks the digests; this program derives nothing from a
// seed itself.  What every run shares (protocols, fault plan, window size,
// set-up repetitions) is fixed below.
//
//   firefly_perfbench static n= seeds= trace=
//       static trials run to convergence
//   firefly_perfbench soak n= seed= windows= trace=
//       service soak, one window per call
//   firefly_perfbench sweep ns= trials= master_seed= workers= passes= trace=
//       Fig. 3/4 sweep on a thread pool
//
// Layers are timed from outside, around calls into public functions:
// core::deploy (geo), proto::Registry::make (engine build: channel, radio
// candidate cache, reliable links, hot arena), EngineBase::run /
// run_service / snapshot / restore, and core::sweep on a util::ThreadPool.
// Counts are the exact ones those calls return.  With trace=1 the same work
// runs once plain and once with obs::Telemetry attached, reading the spans,
// histograms and counters the program already records (see Trace).
//
// Every line is one JSON object whose "rec" tag is one of: build
// (provenance), setup, op, replay, snapshot, point, probe, phase, trace,
// rss.  Digests are FNV-1a-64 over the text the repo's own JSON writers
// (core/report.hpp) produce for a result.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "proto/registry.hpp"
#include "sim/soak.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace firefly;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every thread), in ms.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Moves the calling thread round robin over the CPUs the process may use,
/// one step per timed sample.  On a shared virtual machine each vCPU's speed
/// depends on what runs beside it on the host and changes over minutes; a
/// single-threaded run left on one vCPU reports that vCPU's luck, while
/// samples spread over all of them give a median that repeats run to run.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort; a failure only adds noise
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- fixed workload settings -----------------------------------------------

/// static-converge: seeds run plain and traced by trace=1.
constexpr std::size_t kStaticTraceSeeds = 2;
/// Builds per engine config whose median is its set-up time.  Set-up
/// samples are short (ms for the soak engine), so a single one is at the
/// mercy of whatever else the host runs at that moment.
constexpr std::uint64_t kStaticSetupReps = 4;
constexpr std::uint64_t kSoakSetupReps = 64;
constexpr std::uint64_t kSweepSetupReps = 5;

/// churn-soak: ST in service mode, 1000-slot windows, in-run snapshots
/// every 5000 slots, snapshot + window + restore + replay every 10th window.
constexpr std::int64_t kSoakWindowSlots = 1000;
constexpr std::int64_t kSoakSnapshotEverySlots = 5000;
constexpr std::uint64_t kSoakReplayEvery = 10;

/// churn-soak's fault plan: churn, i.i.d. drops and deep fades, so the radio
/// takes the scalar fault path.
fault::FaultPlan soak_faults() {
  fault::FaultPlan f;
  f.churn_rate_per_min = 60;
  f.mean_downtime_ms = 2000;
  f.drop_probability = 0.02;
  f.fade_rate_per_min = 30;
  f.fade_mean_duration_ms = 500;
  f.fade_depth_db = 60;
  return f;
}

/// paper-sweep: ST, then FST (Fig. 3/4).
constexpr core::Protocol kSweepProtocols[] = {core::Protocol::kSt, core::Protocol::kFst};

// --- arguments -------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string_view a = argv[i];
      const auto eq = a.find('=');
      if (eq == std::string_view::npos) {
        throw std::invalid_argument("expected key=value: " + std::string(a));
      }
      kv_[std::string(a.substr(0, eq))] = std::string(a.substr(eq + 1));
    }
  }
  [[nodiscard]] const std::string& str(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) throw std::invalid_argument("missing argument: " + key);
    return it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key) const { return std::stoull(str(key)); }
  [[nodiscard]] std::vector<std::uint64_t> u64_list(const std::string& key) const {
    std::vector<std::uint64_t> out;
    std::stringstream ss(str(key));
    for (std::string item; std::getline(ss, item, ',');) out.push_back(std::stoull(item));
    if (out.empty()) throw std::invalid_argument("empty list: " + key);
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// --- output ----------------------------------------------------------------

std::string fnv1a_hex(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// One JSONL record on stdout; `fill` adds the fields after "rec".
template <typename Fill>
void emit(const char* rec, Fill&& fill) {
  std::ostringstream line;
  obs::JsonWriter w(line);
  w.begin_object().field("rec", rec);
  fill(w);
  w.end_object();
  std::cout << line.str() << '\n';
}

/// Digest of whatever `write` puts through a JsonWriter.
template <typename WriteFn>
std::string digest_of(WriteFn&& write) {
  std::ostringstream text;
  obs::JsonWriter w(text);
  write(w);
  return fnv1a_hex(text.str());
}

void write_counts(obs::JsonWriter& w, const core::RunMetrics& m) {
  w.field("converged", m.converged)
      .field("events", m.events_processed)
      .field("slots", m.simulated_ms)
      .field("tx", m.total_messages())
      .field("deliveries", m.deliveries)
      .field("collisions", m.collisions)
      .field("fault_drops", m.fault_drops)
      .field("crashes", static_cast<std::uint64_t>(m.crashes))
      .field("recoveries", static_cast<std::uint64_t>(m.recoveries));
}

// --- tracing ---------------------------------------------------------------

/// One traced operation's telemetry context.  With `keep_spans` an unbounded
/// span sink is attached (capacity 0 never overwrites, so nothing is dropped;
/// the count is reported anyway) and the spans stay in memory until
/// SpanTotals::add.  Without it only the context's per-span histograms
/// record, which keeps memory bounded when a workload emits tens of millions
/// of spans (FST's pco_update in the sweep).
///
/// The counters engines create in the registry are created here, before any
/// engine attaches: EngineBase::set_telemetry looks "engine.fires" up
/// without the context's lock, so pool threads must only ever find it, never
/// insert it or anything else into the counter map ("st.merges").
struct Trace {
  explicit Trace(bool keep_spans) {
    telemetry.registry().counter("engine.fires");
    telemetry.registry().counter("st.merges");
    if (keep_spans) telemetry.attach_spans(&sink);
  }
  obs::Telemetry telemetry;
  obs::SpanSink sink{0};
};

/// Span totals over one or more traced operations.
class SpanTotals {
 public:
  /// Fold one trace in.  Calls, totals and maxima come from the context's
  /// span histograms; with kept spans also the exact slot_delivery durations
  /// and each kind's self time (duration minus what its direct children on
  /// the same thread cover).
  void add(const Trace& t) {
    const obs::Registry& reg = t.telemetry.registry();
    for (std::size_t i = 0; i < obs::kSpanIdCount; ++i) {
      const std::string name = std::string("span.") + obs::span_name(static_cast<obs::SpanId>(i));
      const obs::Histogram& us = reg.histograms().at(name + ".us");
      calls_[i] += reg.counters().at(name + ".calls").value();
      total_ms_[i] += us.sum() / 1e3;
      max_ms_[i] = std::max(max_ms_[i], us.max() / 1e3);
    }
    if (const auto it = reg.counters().find("engine.fires"); it != reg.counters().end()) {
      fires_ += it->second.value();
    }
    if (const auto it = reg.histograms().find("radio.slot_batch");
        it != reg.histograms().end()) {
      slot_batch_p50_.push_back(it->second.quantile(0.5));
    }
    if (t.telemetry.spans() == nullptr) {
      const obs::Histogram& slot = reg.histograms().at("span.slot_delivery.us");
      bucketed_p50_.push_back(slot.quantile(0.50));
      bucketed_p99_.push_back(slot.quantile(0.99));
      spans_kept_ = false;
      return;
    }

    std::vector<obs::Span> spans = t.sink.snapshot();
    dropped_ += t.sink.dropped();
    std::sort(spans.begin(), spans.end(), [](const obs::Span& a, const obs::Span& b) {
      if (a.tid != b.tid) return a.tid < b.tid;
      if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
      return a.duration_ns > b.duration_ns;  // a parent before its same-start child
    });
    struct Open {
      std::int64_t end_ns;
      std::size_t id;
      std::int64_t self_ns;
    };
    std::vector<Open> stack;
    const auto close_top = [&] {
      self_ms_[stack.back().id] += static_cast<double>(stack.back().self_ns) / 1e6;
      stack.pop_back();
    };
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const obs::Span& s = spans[k];
      if (k > 0 && s.tid != spans[k - 1].tid) {
        while (!stack.empty()) close_top();
      }
      while (!stack.empty() && stack.back().end_ns <= s.start_ns) close_top();
      if (s.id == obs::SpanId::kSlotDelivery) {
        slot_delivery_us_.push_back(static_cast<double>(s.duration_ns) / 1e3);
      }
      if (!stack.empty()) stack.back().self_ns -= s.duration_ns;
      stack.push_back(Open{s.start_ns + s.duration_ns, static_cast<std::size_t>(s.id),
                           s.duration_ns});
    }
    while (!stack.empty()) close_top();
  }

  void write(obs::JsonWriter& w) const {
    w.key("spans").begin_object();
    for (std::size_t i = 0; i < obs::kSpanIdCount; ++i) {
      w.key(obs::span_name(static_cast<obs::SpanId>(i))).begin_object();
      w.field("calls", calls_[i]).field("total_ms", total_ms_[i]).field("max_ms", max_ms_[i]);
      if (spans_kept_) w.field("self_ms", self_ms_[i]);
      w.end_object();
    }
    w.end_object();
    if (spans_kept_) {
      w.field("slot_delivery_us_p50", quantile(slot_delivery_us_, 0.50))
          .field("slot_delivery_us_p99", quantile(slot_delivery_us_, 0.99));
    } else {  // interpolated inside the histogram's power-of-two buckets
      w.field("slot_delivery_us_p50", quantile(bucketed_p50_, 0.5))
          .field("slot_delivery_us_p99", quantile(bucketed_p99_, 0.5));
    }
    w.field("spans_kept", spans_kept_)
        .field("slot_batch_p50", quantile(slot_batch_p50_, 0.50))
        .field("fires", fires_)
        .field("spans_dropped", dropped_);
  }

 private:
  /// Nearest-rank quantile; 0 for an empty sample.
  static double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
  }

  std::uint64_t calls_[obs::kSpanIdCount] = {};
  double total_ms_[obs::kSpanIdCount] = {};
  double max_ms_[obs::kSpanIdCount] = {};
  double self_ms_[obs::kSpanIdCount] = {};
  bool spans_kept_ = true;
  std::vector<double> slot_delivery_us_;  ///< every kept slot_delivery duration
  std::vector<double> bucketed_p50_;      ///< per trace, when spans were not kept
  std::vector<double> bucketed_p99_;
  std::vector<double> slot_batch_p50_;    ///< bucketed p50 of each trace's histogram
  std::uint64_t fires_ = 0;
  std::uint64_t dropped_ = 0;
};

void emit_trace(const char* scope, const SpanTotals& totals) {
  emit("trace", [&](obs::JsonWriter& w) {
    w.field("scope", scope);
    totals.write(w);
  });
}

// --- engines ---------------------------------------------------------------

struct Built {
  std::unique_ptr<core::EngineBase> engine;
  double deploy_ms = 0.0;
  double build_ms = 0.0;
};

/// core::deploy + proto::Registry::make, each timed.
Built build(core::Protocol protocol, const core::ScenarioConfig& cfg) {
  Built b;
  auto t0 = Clock::now();
  std::vector<geo::Vec2> positions = core::deploy(cfg);
  b.deploy_ms = ms_since(t0);
  t0 = Clock::now();
  b.engine = proto::Registry::instance().make(protocol, std::move(positions), cfg.protocol,
                                              cfg.radio, cfg.seed);
  b.build_ms = ms_since(t0);
  if (b.engine == nullptr) throw std::runtime_error("protocol not registered");
  return b;
}

/// One set-up sample of the engine config `key`; run.py takes the median
/// per key and sums over keys.
void emit_setup(std::uint64_t key, const Built& b) {
  emit("setup", [&](obs::JsonWriter& w) {
    w.field("key", key).field("deploy_ms", b.deploy_ms).field("build_ms", b.build_ms);
  });
}

/// snapshot() then restore() of that snapshot, each timed; the engine's
/// state is unchanged afterwards.
void time_snapshot(core::EngineBase& engine, const char* where) {
  auto t0 = Clock::now();
  const std::unique_ptr<core::EngineSnapshot> snap = engine.snapshot();
  const double snapshot_ms = ms_since(t0);
  t0 = Clock::now();
  engine.restore(*snap);
  const double restore_ms = ms_since(t0);
  emit("snapshot", [&](obs::JsonWriter& w) {
    w.field("where", where).field("snapshot_ms", snapshot_ms).field("restore_ms", restore_ms);
  });
}

/// Run `body` and emit its wall-clock time as a "phase" record.
template <typename Body>
void timed_phase(const char* phase, Body&& body) {
  const auto t0 = Clock::now();
  body();
  const double wall_ms = ms_since(t0);
  emit("phase", [&](obs::JsonWriter& w) { w.field("phase", phase).field("wall_ms", wall_ms); });
}

// --- static-converge -------------------------------------------------------

/// ST static trials run to convergence: a warm-up trial of seeds[0], then
/// one timed trial per seed, each seed's engine also built
/// kStaticSetupReps - 1 more times for set-up samples.  trace=1: the first
/// kStaticTraceSeeds seeds once plain, then once traced, each followed by a
/// timed snapshot()+restore().
void run_static(const Args& args) {
  core::ScenarioConfig base;
  base.n = args.u64("n");
  const std::vector<std::uint64_t> seeds = args.u64_list("seeds");
  const bool traced = args.u64("trace") != 0;
  const auto config = [&](std::uint64_t seed) {
    core::ScenarioConfig cfg = base;
    cfg.seed = seed;
    return cfg;
  };
  CpuRotation rotation;

  const auto one_trial = [&](std::uint64_t seed, const char* phase, Trace* trace) {
    rotation.next();
    Built b = build(core::Protocol::kSt, config(seed));
    emit_setup(seed, b);
    if (trace != nullptr) b.engine->set_telemetry(&trace->telemetry);
    const auto t0 = Clock::now();
    const core::RunMetrics m = b.engine->run();
    const double run_ms = ms_since(t0);
    const std::string digest =
        digest_of([&](obs::JsonWriter& w) { core::write_run_metrics_json(w, m); });
    emit("op", [&](obs::JsonWriter& w) {
      w.field("kind", "trial").field("key", seed).field("phase", phase)
          .field("setup_ms", b.deploy_ms + b.build_ms).field("run_ms", run_ms);
      write_counts(w, m);
      w.field("digest", digest);
    });
    if (traced) {
      b.engine->set_telemetry(nullptr);
      time_snapshot(*b.engine, "converged");
    }
  };

  if (!traced) {
    one_trial(seeds.front(), "warmup", nullptr);
    for (const std::uint64_t seed : seeds) {
      one_trial(seed, "timed", nullptr);
      for (std::uint64_t r = 1; r < kStaticSetupReps; ++r) {
        rotation.next();
        emit_setup(seed, build(core::Protocol::kSt, config(seed)));
      }
    }
    return;
  }
  const std::size_t k = std::min(kStaticTraceSeeds, seeds.size());
  SpanTotals totals;
  timed_phase("plain", [&] {
    for (std::size_t i = 0; i < k; ++i) one_trial(seeds[i], "plain", nullptr);
  });
  timed_phase("traced", [&] {
    for (std::size_t i = 0; i < k; ++i) {
      Trace trace(true);
      one_trial(seeds[i], "traced", &trace);
      totals.add(trace);
    }
  });
  emit_trace("workload", totals);
}

// --- churn-soak ------------------------------------------------------------

/// One ST service soak of `windows` windows, each window one run_service
/// call with the horizon one window further.  Every kSoakReplayEvery windows
/// the program takes a snapshot, runs the next window, restores the snapshot
/// and runs that window again; the replay's digest must equal the
/// original's.  Afterwards the engine is built kSoakSetupReps more times
/// for set-up samples.  trace=1: the soak once plain, then once traced.
void run_soak(const Args& args) {
  core::ScenarioConfig cfg;
  cfg.n = args.u64("n");
  cfg.seed = args.u64("seed");
  cfg.protocol.faults = soak_faults();
  const std::uint64_t windows = args.u64("windows");
  core::ServiceConfig service;
  service.window_slots = kSoakWindowSlots;
  service.snapshot_every_slots = kSoakSnapshotEverySlots;

  // Taken after the soak, not before it: the first few hundred ms of work
  // in a fresh process run at about half speed on an idle host (frequency
  // and vCPU wake-up), which would split the ms-sized samples in two modes.
  CpuRotation rotation;
  const auto setup_samples = [&] {
    for (std::uint64_t r = 0; r < kSoakSetupReps; ++r) {
      rotation.next();
      emit_setup(0, build(core::Protocol::kSt, cfg));
    }
  };

  const auto soak = [&](const char* phase, Trace* trace) {
    Built b = build(core::Protocol::kSt, cfg);
    core::EngineBase& engine = *b.engine;
    if (trace != nullptr) engine.set_telemetry(&trace->telemetry);
    sim::SoakRecorder recorder(1);
    std::string closed;  // digest of the window the last call closed
    recorder.set_consumer([&](const sim::SoakWindow& win) {
      closed = digest_of([&](obs::JsonWriter& w) { core::write_soak_window_json(w, win); });
    });
    core::ServiceReport report;
    const auto advance = [&](std::uint64_t index) {
      service.duration_slots = static_cast<std::int64_t>(index + 1) * kSoakWindowSlots;
      const auto t0 = Clock::now();
      report = engine.run_service(service, &recorder);
      return ms_since(t0);
    };
    for (std::uint64_t i = 0; i < windows; ++i) {
      rotation.next();
      const bool replay = i % kSoakReplayEvery == kSoakReplayEvery - 1;
      std::unique_ptr<core::EngineSnapshot> snap;
      double snapshot_ms = 0.0;
      if (replay) {
        const auto t0 = Clock::now();
        snap = engine.snapshot();
        snapshot_ms = ms_since(t0);
      }
      const double run_ms = advance(i);
      const std::string digest = closed;
      emit("op", [&](obs::JsonWriter& w) {
        w.field("kind", "window").field("key", i).field("phase", phase)
            .field("run_ms", run_ms).field("ok", report.ok());
        write_counts(w, report.metrics);  // cumulative over the soak so far
        w.field("arena_high_water", report.arena_high_water).field("digest", digest);
      });
      if (!replay) continue;
      const auto t0 = Clock::now();
      engine.restore(*snap);
      const double restore_ms = ms_since(t0);
      const double replay_ms = advance(i);
      emit("replay", [&](obs::JsonWriter& w) {
        w.field("key", i).field("phase", phase).field("snapshot_ms", snapshot_ms)
            .field("restore_ms", restore_ms).field("run_ms", replay_ms)
            .field("ok", report.ok()).field("digest", closed);
      });
    }
  };

  if (args.u64("trace") == 0) {
    soak("timed", nullptr);
    setup_samples();
    return;
  }
  timed_phase("plain", [&] { soak("plain", nullptr); });
  Trace trace(true);
  timed_phase("traced", [&] { soak("traced", &trace); });
  setup_samples();
  SpanTotals totals;
  totals.add(trace);
  emit_trace("workload", totals);
}

// --- paper-sweep -----------------------------------------------------------

/// The Fig. 3/4 sweep: core::sweep per protocol on one pool, `passes` times.
/// Set-up is then timed in kSweepSetupReps separate serial passes over the
/// sweep's exact trial configs (after the sweeps, on a warm CPU; see
/// run_soak).  trace=1: one plain and one traced sweep, the set-up passes,
/// then a serial probe trial (plain and traced) of the largest ST config,
/// because the sweep reports no per-trial engine counts.
void run_sweep(const Args& args) {
  core::SweepConfig cfg;
  cfg.ns.clear();
  for (const std::uint64_t n : args.u64_list("ns")) cfg.ns.push_back(n);
  cfg.trials = args.u64("trials");
  cfg.master_seed = args.u64("master_seed");
  const bool traced = args.u64("trace") != 0;
  util::ThreadPool pool(args.u64("workers"));

  // The trial seed rule of core::sweep, through the public util::derive_seed.
  const auto trial_config = [&](std::size_t n, std::size_t trial) {
    core::ScenarioConfig c = cfg.base;
    c.n = n;
    c.seed = util::derive_seed(cfg.master_seed, "experiment.trial",
                               (static_cast<std::uint64_t>(n) << 20) | trial);
    return c;
  };

  // The pool's threads exist already, so pinning this one leaves them free.
  CpuRotation rotation;
  const auto setup_passes = [&] {
    for (std::uint64_t rep = 0; rep < kSweepSetupReps; ++rep) {
      std::uint64_t key = 0;  // the config's index in the sweep's flat order
      for (const core::Protocol p : kSweepProtocols) {
        for (const std::size_t n : cfg.ns) {
          for (std::size_t t = 0; t < cfg.trials; ++t) {
            rotation.next();
            const Built b = build(p, trial_config(n, t));
            emit_setup(key++, b);
            if (traced && t == 0 && n == cfg.ns.back()) time_snapshot(*b.engine, "fresh");
          }
        }
      }
    }
  };

  const auto one_sweep = [&](std::uint64_t rep, const char* phase, Trace* trace) {
    cfg.hooks.telemetry = trace != nullptr ? &trace->telemetry : nullptr;
    std::vector<std::vector<core::SweepPoint>> results;
    const double cpu0 = process_cpu_ms();
    const auto t0 = Clock::now();
    for (const core::Protocol p : kSweepProtocols) results.push_back(core::sweep(p, cfg, &pool));
    const double run_ms = ms_since(t0);
    const double cpu_ms = process_cpu_ms() - cpu0;
    for (std::size_t pi = 0; pi < results.size(); ++pi) {
      const core::Protocol protocol = kSweepProtocols[pi];
      for (const core::SweepPoint& point : results[pi]) {
        const std::string digest = digest_of([&](obs::JsonWriter& w) {
          core::write_sweep_point_json(w, point, protocol, "perfbench");
        });
        const auto total = [](const util::Sample& s) {
          return s.mean() * static_cast<double>(s.count());
        };
        emit("point", [&](obs::JsonWriter& w) {
          w.field("protocol", core::to_string(protocol))
              .field("n", static_cast<std::uint64_t>(point.n))
              .field("rep", rep)
              .field("failure_rate", point.failure_rate)
              .field("tx", total(point.total_messages))
              .field("digest", digest);
        });
      }
    }
    emit("op", [&](obs::JsonWriter& w) {
      w.field("kind", "sweep").field("key", rep).field("phase", phase)
          .field("run_ms", run_ms).field("cpu_ms", cpu_ms)
          .field("workers", static_cast<std::uint64_t>(pool.size()));
    });
  };

  if (!traced) {
    for (std::uint64_t rep = 0; rep < args.u64("passes"); ++rep) one_sweep(rep, "timed", nullptr);
    setup_passes();
    return;
  }
  one_sweep(0, "plain", nullptr);
  {
    Trace trace(false);  // FST alone records tens of millions of spans
    one_sweep(1, "traced", &trace);
    SpanTotals totals;
    totals.add(trace);
    emit_trace("workload", totals);
  }
  setup_passes();

  const core::ScenarioConfig probe = trial_config(cfg.ns.back(), 0);
  SpanTotals probe_totals;
  for (const bool on : {false, true}) {
    Trace trace(true);
    Built b = build(kSweepProtocols[0], probe);
    if (on) b.engine->set_telemetry(&trace.telemetry);
    const auto t0 = Clock::now();
    const core::RunMetrics m = b.engine->run();
    const double run_ms = ms_since(t0);
    if (on) probe_totals.add(trace);
    const std::string digest =
        digest_of([&](obs::JsonWriter& w) { core::write_run_metrics_json(w, m); });
    emit("probe", [&](obs::JsonWriter& w) {
      w.field("n", static_cast<std::uint64_t>(probe.n)).field("phase", on ? "traced" : "plain")
          .field("run_ms", run_ms);
      write_counts(w, m);
      w.field("digest", digest);
    });
  }
  emit_trace("probe", probe_totals);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: firefly_perfbench <static|soak|sweep> key=value...\n";
    return 2;
  }
  const std::string_view workload = argv[1];
  emit("build", [](obs::JsonWriter& w) { obs::write_build_info_fields(w); });
  try {
    const Args args(argc, argv);
    if (workload == "static") {
      run_static(args);
    } else if (workload == "soak") {
      run_soak(args);
    } else if (workload == "sweep") {
      run_sweep(args);
    } else {
      std::cerr << "unknown workload: " << workload << '\n';
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "firefly_perfbench: " << e.what() << '\n';
    return 2;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  emit("rss", [&](obs::JsonWriter& w) {
    w.field("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
  });
  std::cout.flush();
  return 0;
}
