// bench_scale — scaling benchmark: wall time of one trial at large N.
//
// Runs the protocol axis (default ST, the production protocol; override
// with FIREFLY_BENCH_PROTOCOLS) at N ∈ {1000, 2000, 5000} (density-scaled
// area, so the network stays multi-hop) once per trial and times each
// trial end to end, candidate-cache build included.
//
//   bench_scale [--trials K] [--json scale.json]
//   FIREFLY_BENCH_MAX_N=2000 bench_scale      # trim the sweep
//
// JSONL output (firefly-bench-v1): one "scale" record per (n, trial) with
// the measured wall_ms.  Wall-clock fields make this file machine-speed
// dependent; the repo's performance gate is the perfbench benchmark, not
// this file.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;

struct TrialResult {
  double wall_ms{0.0};
  core::RunMetrics metrics;
};

TrialResult run_one(core::Protocol protocol, std::size_t n, std::size_t trial) {
  core::ScenarioConfig config;
  config.n = n;
  config.seed = util::derive_seed(2015, "bench_scale",
                                  (static_cast<std::uint64_t>(n) << 20) | trial);

  TrialResult result;
  const auto start = std::chrono::steady_clock::now();
  result.metrics = core::run_trial(protocol, config);
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
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

  util::Table table("bench_scale — wall-clock per trial");
  table.set_headers({"protocol", "N", "trials", "wall ms"});

  for (const core::Protocol protocol : protocols) {
    const char* protocol_id = core::to_string(protocol);
    for (const std::size_t n : ns) {
      double wall_ms = 0.0;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        std::cerr << "bench_scale: protocol=" << protocol_id << " n=" << n << " trial=" << trial
                  << "..." << std::flush;
        const TrialResult result = run_one(protocol, n, trial);
        std::cerr << ' ' << util::Table::num(result.wall_ms) << " ms\n";
        wall_ms += result.wall_ms;
        json.write_object([&](obs::JsonWriter& w) {
          w.field("series", "scale");
          w.field("protocol", protocol_id);
          w.field("n", static_cast<std::uint64_t>(n));
          w.field("trial", static_cast<std::uint64_t>(trial));
          w.field("wall_ms", result.wall_ms);
          w.field("converged", result.metrics.converged);
          w.field("total_messages", result.metrics.total_messages());
          w.field("deliveries", result.metrics.deliveries);
        });
      }
      table.add_row({protocol_id, util::Table::num(n), util::Table::num(trials),
                     util::Table::num(wall_ms / static_cast<double>(trials))});
    }
  }

  table.print(std::cout);
  if (json) std::cout << "\nJSON written to " << json.path() << '\n';
  return 0;
}
