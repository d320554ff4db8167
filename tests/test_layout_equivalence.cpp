// Device-layout equivalence: every hot per-device field lives only in
// core::DeviceHot's flat arrays, and the results must equal those of the
// fat-struct reference core that was deleted.  What that leg proved is kept
// as data: each digest below is FNV-1a-64 of the serialised RunMetrics
// (core::write_run_metrics_json, shortest-round-trip doubles), recorded
// while both device cores, both schedulers and both spatial indexes still
// existed, after checking that all eight legs produced the same JSON.  The
// grid/dense axis is still live and is re-checked here.  The wider
// backend × scenario matrix is in test_golden_digests.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "obs/json.hpp"
#include "phy/channel.hpp"
#include "proto/registry.hpp"

namespace {

using namespace firefly;

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string metrics_json(const core::RunMetrics& metrics) {
  std::ostringstream oss;
  obs::JsonWriter w(oss);
  core::write_run_metrics_json(w, metrics);
  return oss.str();
}

TEST(LayoutEquivalence, EveryProtocolStaticRunIsByteIdentical) {
  // Recorded per registry name: N=50, fixed area, 120 periods, seed 8101.
  const std::map<std::string, std::uint64_t> recorded = {
      {"st", 0x833adbfb431b3556ULL},
      {"fst", 0xf2edb7360ae261feULL},
      {"birthday", 0x5ff6e2fac7bd5f4fULL},
      {"desync", 0xf5897ef73879604bULL},
  };
  const proto::Registry& registry = proto::Registry::instance();
  ASSERT_EQ(registry.names().size(), recorded.size());
  for (const std::string& name : registry.names()) {
    SCOPED_TRACE(name);
    const auto it = recorded.find(name);
    ASSERT_NE(it, recorded.end()) << "no recorded digest for backend " << name;
    core::ScenarioConfig config;
    config.n = 50;
    config.seed = 8101;
    config.area_policy = core::AreaPolicy::kFixed;
    config.protocol.max_periods = 120;
    const core::Protocol protocol = registry.find(name)->id;
    config.radio.spatial_index = phy::SpatialIndex::kGrid;
    const core::RunMetrics grid = core::run_trial(protocol, config);
    config.radio.spatial_index = phy::SpatialIndex::kDense;
    const core::RunMetrics dense = core::run_trial(protocol, config);
    const std::string json = metrics_json(grid);
    EXPECT_EQ(metrics_json(dense), json) << "grid and dense diverged";
    EXPECT_EQ(fnv1a64(json), it->second) << "recorded digest not reproduced; got\n" << json;
    // Guard against a vacuous pass.
    EXPECT_GT(grid.deliveries, 0U);
  }
}

}  // namespace
