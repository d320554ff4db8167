#include "core/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "core/engine.hpp"
#include "proto/registry.hpp"
#include "util/rng.hpp"

namespace firefly::core {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kFst: return "FST";
    case Protocol::kSt: return "ST";
    case Protocol::kBirthday: return "Birthday";
    case Protocol::kDesync: return "DESYNC";
  }
  return "?";
}

geo::Area ScenarioConfig::area() const {
  if (area_policy == AreaPolicy::kFixed) return geo::kPaperArea;
  return geo::scaled_area_for(n);
}

std::vector<geo::Vec2> deploy(const ScenarioConfig& config) {
  util::RngFactory factory(config.seed);
  util::Rng rng = factory.make("scenario.deploy");
  return geo::deploy_uniform(config.n, config.area(), rng);
}

graph::Graph proximity_graph(const std::vector<geo::Vec2>& positions,
                             const phy::Channel& channel) {
  graph::Graph g(positions.size());
  for (std::uint32_t u = 0; u < positions.size(); ++u) {
    for (std::uint32_t v = u + 1; v < positions.size(); ++v) {
      const util::Dbm forward = channel.mean_received_power(u, positions[u], v, positions[v]);
      const util::Dbm backward = channel.mean_received_power(v, positions[v], u, positions[u]);
      const util::Dbm strongest = std::max(forward, backward);
      if (channel.detectable(strongest)) g.add_edge(u, v, strongest.value);
    }
  }
  return g;
}

RunMetrics run_trial(Protocol protocol, const ScenarioConfig& config,
                     const RunHooks& hooks) {
  std::vector<geo::Vec2> positions = deploy(config);
  std::unique_ptr<EngineBase> engine = proto::Registry::instance().make(
      protocol, std::move(positions), config.protocol, config.radio, config.seed);
  assert(engine != nullptr);  // every Protocol enumerator has a built-in backend
  engine->set_trace(hooks.trace);
  engine->set_telemetry(hooks.telemetry);
  RunMetrics metrics = engine->run();
  if (hooks.memory != nullptr) *hooks.memory = engine->memory_report();
  if (hooks.progress != nullptr) hooks.progress->advance();
  return metrics;
}

}  // namespace firefly::core
