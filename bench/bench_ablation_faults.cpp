// bench_ablation_faults — resilience curves for the fault-injection
// subsystem: how gracefully the protocols on the axis (default ST and the
// FST baseline; override with FIREFLY_BENCH_PROTOCOLS) degrade under node
// churn, oscillator drift and i.i.d. packet loss, each swept separately so
// the degradation observables (re-convergence, sync uptime, resync time,
// post-convergence RACH2 traffic) attribute to one fault class at a time.
//
// Churn runs use a quiet tail (churn stops at 60% of the horizon) so the
// bench answers the recovery question — does the protocol re-converge once
// the faults stop? — rather than the unanswerable one of converging while
// devices keep dying.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace firefly;

struct Cell {
  int trials = 0;
  int converged = 0;
  int partitioned = 0;
  double uptime_sum = 0.0;
  double resync_sum = 0.0;
  std::uint64_t repair_sum = 0;
  std::uint64_t drops_sum = 0;
  double crashes_sum = 0.0;
};

core::ScenarioConfig base_config(std::uint64_t seed) {
  core::ScenarioConfig config;
  config.n = 30;
  config.seed = seed;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 250;
  return config;
}

Cell run_cell(core::Protocol protocol, const std::vector<core::ScenarioConfig>& configs,
              util::ThreadPool& pool) {
  std::vector<core::RunMetrics> results(configs.size());
  pool.parallel_for(configs.size(), [&](std::size_t i) {
    results[i] = core::run_trial(protocol, configs[i]);
  });
  Cell cell;
  for (const core::RunMetrics& m : results) {
    ++cell.trials;
    if (m.converged) ++cell.converged;
    if (m.partitioned) ++cell.partitioned;
    cell.uptime_sum += m.sync_uptime;
    cell.resync_sum += m.mean_resync_ms;
    cell.repair_sum += m.repair_messages;
    cell.drops_sum += m.fault_drops;
    cell.crashes_sum += m.crashes;
  }
  return cell;
}

std::string frac(int num, int den) {
  return util::Table::num(static_cast<std::size_t>(num)) + "/" +
         util::Table::num(static_cast<std::size_t>(den));
}

void add_rows(util::Table& table, const std::string& level,
              const std::vector<core::Protocol>& protocols,
              const std::vector<core::ScenarioConfig>& configs, util::ThreadPool& pool) {
  for (const core::Protocol protocol : protocols) {
    const Cell c = run_cell(protocol, configs, pool);
    table.add_row({level, core::to_string(protocol), frac(c.converged, c.trials),
                   util::Table::num(c.uptime_sum / c.trials, 3),
                   util::Table::num(c.resync_sum / c.trials, 0),
                   util::Table::num(static_cast<std::size_t>(c.repair_sum / c.trials)),
                   util::Table::num(c.crashes_sum / c.trials, 1),
                   util::Table::num(static_cast<std::size_t>(c.drops_sum / c.trials)),
                   frac(c.partitioned, c.trials)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json("ablation_faults", &argc, argv);
  const std::vector<core::Protocol> protocols =
      bench::bench_protocols({core::Protocol::kSt, core::Protocol::kFst});
  json.write_meta(protocols);

  const std::size_t trials = bench::env_or("FIREFLY_BENCH_TRIALS", 3);
  std::cout << "Fault-resilience ablation: 30 devices, Table I box, " << trials
            << " seeds/point\n";
  util::ThreadPool pool;

  util::Table table("Degradation under churn / drift / packet loss (quiet-tail recovery)");
  table.set_headers({"fault level", "proto", "reconverged", "sync uptime",
                     "mean resync (ms)", "repair msgs", "crashes", "fault drops",
                     "partitioned"});

  auto cell_configs = [&](auto mutate) {
    std::vector<core::ScenarioConfig> configs;
    for (std::size_t t = 0; t < trials; ++t) {
      core::ScenarioConfig config = base_config(500 + t);
      mutate(config.protocol.faults, config);
      configs.push_back(config);
    }
    return configs;
  };

  // --- node churn (crash/recover), stopping at 60% of the horizon ---
  for (const double rate : {5.0, 15.0, 30.0, 60.0}) {
    const auto configs = cell_configs([rate](fault::FaultPlan& plan,
                                             const core::ScenarioConfig& config) {
      plan.churn_rate_per_min = rate;
      plan.mean_downtime_ms = 2'000.0;
      plan.churn_stop_ms = 0.6 * static_cast<double>(config.protocol.max_slots());
    });
    add_rows(table, "churn " + util::Table::num(rate, 0) + "/min", protocols, configs,
             pool);
  }

  // --- oscillator drift ---
  for (const double ppm : {50.0, 200.0, 500.0}) {
    const auto configs = cell_configs(
        [ppm](fault::FaultPlan& plan, const core::ScenarioConfig&) {
          plan.drift_max_ppm = ppm;
        });
    add_rows(table, "drift " + util::Table::num(ppm, 0) + " ppm", protocols, configs,
             pool);
  }

  // --- i.i.d. packet loss ---
  for (const double p : {0.05, 0.15, 0.30}) {
    const auto configs = cell_configs(
        [p](fault::FaultPlan& plan, const core::ScenarioConfig&) {
          plan.drop_probability = p;
        });
    add_rows(table, "drop " + util::Table::num(100.0 * p, 0) + "%", protocols, configs,
             pool);
  }

  // --- deep fades ---
  for (const double rate : {20.0, 60.0}) {
    const auto configs = cell_configs(
        [rate](fault::FaultPlan& plan, const core::ScenarioConfig&) {
          plan.fade_rate_per_min = rate;
          plan.fade_mean_duration_ms = 500.0;
        });
    add_rows(table, "fades " + util::Table::num(rate, 0) + "/min", protocols, configs,
             pool);
  }

  table.print(std::cout);
  table.write_csv("ablation_faults.csv");
  json.write_table(table, "faults");

  std::cout << "\nReading: ST re-converges after churn at every swept rate once the\n"
               "churn stops — the head lease re-elects around crashed heads and\n"
               "recovered devices re-join as fresh singletons.  \"repair msgs\"\n"
               "counts every RACH2 sent after the first convergence, ST's\n"
               "per-period sync floods included; those floods dominate it, so it\n"
               "shows no trend with the churn rate.  FST has no\n"
               "structure to repair (any neighbour's pulse re-entrains it) but\n"
               "also nothing to show for the faults but lower sync uptime.  Drift\n"
               "is absorbed up to hundreds of ppm by the periodic sync floods;\n"
               "i.i.d. loss mostly stretches convergence time.  (CSV written to\n"
               "ablation_faults.csv)\n";
  return 0;
}
