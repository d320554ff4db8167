// Device-layout equivalence: every hot per-device field lives only in
// core::DeviceHot's flat arrays, and the results must equal those of the
// fat-struct reference core that was deleted.  What that leg proved is kept
// as data: each digest below is FNV-1a-64 of the serialised RunMetrics
// (core::write_run_metrics_json, shortest-round-trip doubles), recorded
// while both device cores, both schedulers and both spatial indexes still
// existed, after checking that all eight legs produced the same JSON.  The
// wider backend × scenario matrix is in test_golden_digests.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/scenario.hpp"
#include "proto/registry.hpp"
#include "test_worlds.hpp"

namespace {

using namespace firefly;

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
    const core::RunMetrics metrics = core::run_trial(protocol, config);
    const std::string json = metrics_json(metrics);
    EXPECT_EQ(core::fnv1a64(json), it->second) << "recorded digest not reproduced; got\n" << json;
    // Guard against a vacuous pass.
    EXPECT_GT(metrics.deliveries, 0U);
  }
}

}  // namespace
