// bench_scale — scaling benchmark: spatial index at large N.
//
// Runs the protocol axis (default ST, the production protocol; override
// with FIREFLY_BENCH_PROTOCOLS) at N ∈ {1000, 2000, 5000} (density-scaled
// area, so the network stays multi-hop) once per trial under two
// configurations:
//
//   dense — exhaustive O(N²) candidate enumeration: the reference.
//   grid  — the spatial-index fast path (production); grid_vs_dense is the
//           candidate-enumeration speedup.
//
// Both must produce bit-identical RunMetrics (asserted per trial, reported
// in the JSON as `metrics_identical`, and the exit status is non-zero when
// they diverge), so the speedup is a pure optimisation.
//
//   bench_scale [--trials K] [--json scale.json]
//   FIREFLY_BENCH_MAX_N=2000 bench_scale      # trim the sweep
//
// JSONL output (firefly-bench-v1): one "scale" record per (n, mode, trial)
// with the measured wall_ms, then one "speedup" record per n.  Wall-clock
// fields make this file machine-speed dependent; the repo's performance
// gate is the perfbench benchmark, not this file.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;

struct Mode {
  const char* name;
  phy::SpatialIndex index;
};

constexpr Mode kModes[] = {
    {"dense", phy::SpatialIndex::kDense},
    {"grid", phy::SpatialIndex::kGrid},
};
constexpr std::size_t kModeCount = sizeof(kModes) / sizeof(kModes[0]);

struct TrialResult {
  double wall_ms{0.0};
  core::RunMetrics metrics;
  std::string metrics_json;
};

TrialResult run_one(core::Protocol protocol, std::size_t n, std::size_t trial,
                    const Mode& mode) {
  core::ScenarioConfig config;
  config.n = n;
  config.seed = util::derive_seed(2015, "bench_scale",
                                  (static_cast<std::uint64_t>(n) << 20) | trial);
  config.radio.spatial_index = mode.index;

  TrialResult result;
  const auto start = std::chrono::steady_clock::now();
  result.metrics = core::run_trial(protocol, config);
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();

  std::ostringstream oss;
  obs::JsonWriter w(oss);
  core::write_run_metrics_json(w, result.metrics);
  result.metrics_json = oss.str();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json("bench_scale", &argc, argv);

  std::size_t trials = bench::env_or("FIREFLY_BENCH_TRIALS", 1);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trials" && i + 1 < argc) {
      trials = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg.rfind("--trials=", 0) == 0) {
      trials = static_cast<std::size_t>(std::strtoull(arg.data() + 9, nullptr, 10));
    } else {
      std::cerr << "bench_scale: unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  if (trials == 0) trials = 1;

  const std::size_t max_n = bench::env_or("FIREFLY_BENCH_MAX_N", 5000);
  std::vector<std::size_t> ns;
  for (const std::size_t n : {1000UL, 2000UL, 5000UL}) {
    if (n <= max_n) ns.push_back(n);
  }
  if (ns.empty()) ns.push_back(max_n);

  const std::vector<core::Protocol> protocols =
      bench::bench_protocols({core::Protocol::kSt});
  json.write_meta(protocols);

  util::Table table("bench_scale — wall-clock: dense vs grid spatial index");
  table.set_headers({"protocol", "N", "trials", "dense ms", "grid ms", "grid/dense",
                     "identical"});

  bool all_identical = true;
  for (const core::Protocol protocol : protocols) {
    const char* protocol_id = core::to_string(protocol);
    for (const std::size_t n : ns) {
      double mode_ms[kModeCount] = {};
      bool identical = true;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        std::string reference_json;
        for (std::size_t m = 0; m < kModeCount; ++m) {
          const Mode& mode = kModes[m];
          std::cerr << "bench_scale: protocol=" << protocol_id << " n=" << n
                    << " mode=" << mode.name << " trial=" << trial << "..." << std::flush;
          const TrialResult result = run_one(protocol, n, trial, mode);
          std::cerr << ' ' << util::Table::num(result.wall_ms) << " ms\n";
          mode_ms[m] += result.wall_ms;
          json.write_object([&](obs::JsonWriter& w) {
            w.field("series", "scale");
            w.field("protocol", protocol_id);
            w.field("mode", mode.name);
            w.field("n", static_cast<std::uint64_t>(n));
            w.field("trial", static_cast<std::uint64_t>(trial));
            w.field("wall_ms", result.wall_ms);
            w.field("converged", result.metrics.converged);
            w.field("total_messages", result.metrics.total_messages());
            w.field("deliveries", result.metrics.deliveries);
          });
          // The grid must reproduce the dense reference bit for bit.
          if (m == 0) {
            reference_json = result.metrics_json;
          } else if (result.metrics_json != reference_json) {
            identical = false;
          }
        }
      }
      for (double& ms : mode_ms) ms /= static_cast<double>(trials);
      const double dense_ms = mode_ms[0];
      const double grid_ms = mode_ms[1];
      const double grid_vs_dense = grid_ms > 0.0 ? dense_ms / grid_ms : 0.0;
      all_identical = all_identical && identical;

      json.write_object([&](obs::JsonWriter& w) {
        w.field("series", "speedup");
        w.field("protocol", protocol_id);
        w.field("n", static_cast<std::uint64_t>(n));
        w.field("trials", static_cast<std::uint64_t>(trials));
        w.field("dense_ms", dense_ms);
        w.field("grid_ms", grid_ms);
        w.field("grid_vs_dense", grid_vs_dense);
        w.field("metrics_identical", identical);
      });
      table.add_row({protocol_id, util::Table::num(n), util::Table::num(trials),
                     util::Table::num(dense_ms), util::Table::num(grid_ms),
                     util::Table::num(grid_vs_dense), identical ? "yes" : "NO"});
    }
  }

  table.print(std::cout);
  if (json) std::cout << "\nJSON written to " << json.path() << '\n';
  if (!all_identical) {
    std::cerr << "bench_scale: grid metrics DIVERGED from the dense reference\n";
    return 1;
  }
  return 0;
}
