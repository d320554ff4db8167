// Tests for the tree_service_affinity metric: the share of ST tree edges
// that join devices with the same service interest.
#include <gtest/gtest.h>

#include "core/scenario.hpp"

namespace {

using namespace firefly;

TEST(ServiceAffinity, ZeroBiasGivesBaselineAffinity) {
  // With 4 uniformly assigned services and the pure strongest-PS edge rule,
  // roughly a quarter of tree edges join same-service devices.
  double affinity = 0.0;
  const int seeds = 4;
  for (int s = 0; s < seeds; ++s) {
    core::ScenarioConfig config;
    config.n = 60;
    config.seed = 100 + s;
    config.area_policy = core::AreaPolicy::kFixed;
    const auto m = core::run_trial(core::Protocol::kSt, config);
    EXPECT_TRUE(m.converged);
    affinity += m.tree_service_affinity;
  }
  affinity /= seeds;
  EXPECT_GT(affinity, 0.10);
  EXPECT_LT(affinity, 0.45);
}

}  // namespace
