// proximity_services.cpp — ProSe-style service discovery with the paper's
// two-codec scheme.
//
// The paper's motivation: D2D proximity services need *simultaneous*
// neighbour discovery and application-level (service-interest) discovery.
// This example runs the proposed ST protocol on a Table I network where
// devices carry one of several service interests (think: gaming lobby,
// content share, push advertising, public safety), then reports per-service
// peer groups, how long discovery+sync took, and what flowed over which
// RACH codec.
//
//   ./build/examples/proximity_services [n] [seed]
#include <cstdlib>
#include <iostream>
#include <map>
#include <vector>

#include "core/scenario.hpp"
#include "proto/st.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace firefly;
  using util::Table;

  core::ScenarioConfig config;
  config.n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 80;
  config.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2015;
  config.area_policy = core::AreaPolicy::kDensityScaled;

  static const char* kServiceNames[] = {"gaming-lobby", "content-share",
                                        "push-advert", "public-safety"};

  std::cout << "Proximity services demo: " << config.n
            << " devices, 4 service interests, seed " << config.seed << "\n";

  auto positions = core::deploy(config);
  proto::StEngine engine(std::move(positions), config.protocol, config.radio, config.seed);
  const core::RunMetrics metrics = engine.run();

  std::cout << "\nconverged: " << (metrics.converged ? "yes" : "NO") << " at "
            << metrics.convergence_ms << " ms"
            << " (sync " << metrics.sync_ms << " ms, discovery " << metrics.discovery_ms
            << " ms)\n"
            << "RACH1 (keep-alive/discovery): " << metrics.rach1_messages
            << " msgs, RACH2 (tree control): " << metrics.rach2_messages << " msgs\n";

  // Per-service population and discovered peer counts.
  std::map<std::uint16_t, std::size_t> population;
  std::map<std::uint16_t, double> peers_found;
  for (const auto& device : engine.devices()) {
    ++population[device.service];
    std::size_t same = 0;
    for (const auto& [id, info] : engine.neighbors(device.id)) {
      if (info.service == device.service) ++same;
    }
    peers_found[device.service] += static_cast<double>(same);
  }

  Table table("Service-interest groups discovered in proximity");
  table.set_headers({"service", "devices", "avg peers discovered"});
  for (const auto& [service, count] : population) {
    table.add_row({kServiceNames[service % 4], Table::num(count),
                   Table::num(peers_found[service] / static_cast<double>(count), 1)});
  }
  table.print(std::cout);

  // Show one device's view: its service peers ranked by PS strength — the
  // list a ProSe application would hand to the user.
  const auto& device = engine.devices().front();
  Table view("Device 0's ranked service peers (service: " +
             std::string(kServiceNames[device.service % 4]) + ")");
  view.set_headers({"peer", "PS strength (dBm)", "est. distance (m)", "true distance (m)"});
  std::vector<std::pair<double, std::uint32_t>> ranked;
  for (const auto& [id, info] : engine.neighbors(device.id)) {
    const double weight = info.weight_dbm;  // by value: the field is packed
    if (info.service == device.service) ranked.emplace_back(weight, id);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(ranked.size(), 8); ++i) {
    const auto& info = engine.neighbors(device.id).at(ranked[i].second);
    const double est_distance_m =
        engine.ranging().estimate_distance(firefly::util::Dbm{info.weight_dbm});
    view.add_row({"UE" + std::to_string(ranked[i].second),
                  Table::num(info.weight_dbm, 1), Table::num(est_distance_m, 1),
                  Table::num(geo::distance(device.position,
                                           engine.devices()[ranked[i].second].position),
                             1)});
  }
  view.print(std::cout);
  return metrics.converged ? 0 : 1;
}
