// mobile_network.cpp — discovery and synchronisation under mobility, the
// paper's stated future work ("this proximity discovery concept can be
// extended to more realistic scenarios of D2D LTE-A networks").
//
// Devices walk a random-waypoint pattern at pedestrian speed while the ST
// protocol runs continuously: tree edges to departed neighbours go stale
// and are pruned, orphaned devices restart as singleton fragments and
// re-merge, and the keep-alive sync floods keep the phase aligned through
// the churn.  The example samples the live network once per second and
// prints the sync/fragment/discovery time series.
//
//   ./build/examples/mobile_network [n] [speed_mps] [seconds] [seed]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <set>
#include <vector>

#include "core/scenario.hpp"
#include "proto/st.hpp"
#include "pco/sync_metrics.hpp"
#include "util/table.hpp"

namespace {

using namespace firefly;

class MobileObserver final : public proto::StEngine {
 public:
  using StEngine::StEngine;

  struct Snapshot {
    double t_s;
    std::size_t fragments;
    double firing_spread_slots;
    double mean_fresh_neighbors;
    std::size_t tree_edges;
  };

  void install(util::Table* table) {
    sim_.schedule_periodic(1000, 1000, [this, table] {  // once a second (1,000 slots)
      const Snapshot s = snapshot();
      table->add_row({util::Table::num(s.t_s, 0), util::Table::num(s.fragments),
                      util::Table::num(s.firing_spread_slots, 1),
                      util::Table::num(s.mean_fresh_neighbors, 1),
                      util::Table::num(s.tree_edges)});
    });
  }

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s{};
    const std::int64_t slot = current_slot();
    s.t_s = static_cast<double>(slot) * 1e-3;
    const std::int64_t fresh_horizon = 2 * params().period_slots;
    std::set<std::uint16_t> fragments;
    std::vector<std::int64_t> mods;
    double fresh_sum = 0.0;
    std::size_t edges = 0;
    for (const auto& d : devices()) {
      fragments.insert(fragment(d.id));
      if (last_fire_slot(d.id) >= 0) mods.push_back(last_fire_slot(d.id) % params().period_slots);
      std::size_t fresh = 0;
      for (const auto& [id, info] : neighbors(d.id)) {
        if (slot - info.last_heard_slot <= fresh_horizon) ++fresh;
      }
      fresh_sum += static_cast<double>(fresh);
      edges += d.tree_neighbors.size();
    }
    s.fragments = fragments.size();
    s.mean_fresh_neighbors = fresh_sum / static_cast<double>(devices().size());
    s.tree_edges = edges / 2;
    std::sort(mods.begin(), mods.end());
    if (mods.size() > 1) {
      const auto period = static_cast<std::int64_t>(params().period_slots);
      std::int64_t max_gap = mods.front() + period - mods.back();
      for (std::size_t i = 1; i < mods.size(); ++i) {
        max_gap = std::max(max_gap, mods[i] - mods[i - 1]);
      }
      s.firing_spread_slots = static_cast<double>(period - max_gap);
    }
    return s;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60;
  const double speed = argc > 2 ? std::strtod(argv[2], nullptr) : 1.5;
  const std::int64_t seconds = argc > 3 ? std::strtoll(argv[3], nullptr, 10) : 20;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 11;

  std::cout << "Mobile D2D network: " << n << " devices at " << speed
            << " m/s random waypoint, " << seconds << " s, seed " << seed << "\n";

  core::ScenarioConfig config;
  config.n = n;
  config.seed = seed;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.mobility_speed_mps = speed;
  config.protocol.stop_on_convergence = false;  // observe the full duration
  config.protocol.max_periods =
      static_cast<std::uint32_t>(seconds * 1000 / config.protocol.period_slots) + 1;

  util::Table table("Live network state (1 s samples)");
  table.set_headers({"t (s)", "fragments", "firing spread (slots)",
                     "fresh neighbors (avg)", "tree edges"});

  auto positions = core::deploy(config);
  MobileObserver engine(std::move(positions), config.protocol, config.radio, config.seed);
  engine.install(&table);
  const core::RunMetrics metrics = engine.run();
  table.print(std::cout);

  const auto final_state = engine.snapshot();
  std::cout << "\nAfter " << seconds << " s of movement: " << final_state.fragments
            << " fragment(s), firing spread " << final_state.firing_spread_slots
            << " slots, " << metrics.total_messages() << " messages total ("
            << metrics.rach2_messages << " on RACH2 incl. repairs)\n"
            << "Tree edges pruned-and-rebuilt continuously; phase alignment is\n"
            << "maintained by the per-period keep-alive floods through the churn.\n";
  return 0;
}
