// Tests for the delayed pulse-coupled oscillator model: propagation delay
// is exactly what breaks naive pulse coupling on radios (one delay of skew
// per absorption hop), motivating the protocols' reachback compensation.
#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "pco/network_pco.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;
using pco::PcoNetwork;
using pco::PcoNetworkConfig;

graph::Graph full_mesh(std::size_t n) {
  graph::Graph g(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) g.add_edge(u, v, 1.0);
  }
  return g;
}

TEST(PcoDelay, ZeroDelayMatchesInstantaneousModel) {
  graph::Graph mesh = full_mesh(20);
  PcoNetworkConfig config;
  config.prc = pco::PrcParams{3.0, 0.2};
  util::Rng rng(1);
  const auto result = PcoNetwork(mesh, config, rng).run();
  EXPECT_TRUE(result.converged);
}

TEST(PcoDelay, DelayedMeshReachesLooseToleranceOnly) {
  // With a 2%-of-period delay the mesh aligns to within ~one delay but can
  // never beat it: loose tolerance converges, tight tolerance does not.
  graph::Graph mesh = full_mesh(16);

  PcoNetworkConfig loose;
  loose.prc = pco::PrcParams{3.0, 0.3};
  loose.delay_s = 0.002;      // 2% of the 0.1 s period
  loose.refractory_s = 0.01;  // echo guard (> 2·delay), standard for radios
  loose.spread_tolerance = 0.05;
  loose.max_time_s = 200.0;
  util::Rng rng1(2);
  const auto loose_result = PcoNetwork(mesh, loose, rng1).run();
  EXPECT_TRUE(loose_result.converged);

  PcoNetworkConfig tight = loose;
  tight.spread_tolerance = 1e-4;  // tighter than the delay skew
  tight.max_time_s = 50.0;
  util::Rng rng2(2);
  const auto tight_result = PcoNetwork(mesh, tight, rng2).run();
  EXPECT_FALSE(tight_result.converged);
  // The residual spread is on the order of the delay (in phase units).
  EXPECT_GT(tight_result.final_spread, 1e-4);
}

TEST(PcoDelay, SkewGrowsWithDelay) {
  graph::Graph mesh = full_mesh(16);
  auto residual_spread = [&](double delay_s) {
    PcoNetworkConfig config;
    config.prc = pco::PrcParams{3.0, 0.3};
    config.delay_s = delay_s;
    config.spread_tolerance = 1e-9;  // never met: measure the floor
    config.max_time_s = 30.0;
    util::Rng rng(3);
    return PcoNetwork(mesh, config, rng).run().final_spread;
  };
  const double small = residual_spread(0.001);
  const double large = residual_spread(0.01);
  EXPECT_GT(large, small);
}

TEST(PcoDelay, RefractoryPeriodStopsTheDelayEcho) {
  // On a full mesh with a 1 ms delay, a group firing reaches every member
  // one delay later and pushes it over threshold again: without a
  // refractory period each oscillator fires about once per delay, not once
  // per period.  A refractory window longer than the delay absorbs that
  // echo and leaves about one firing per period.
  graph::Graph mesh = full_mesh(10);
  const auto firings_per_device_period = [&](double refractory_s) {
    PcoNetworkConfig config;
    config.prc = pco::PrcParams{3.0, 0.2};
    config.delay_s = 0.001;
    config.refractory_s = refractory_s;
    config.spread_tolerance = -1.0;  // never met: run the whole horizon
    config.max_time_s = 3.0;
    util::Rng rng(4);
    const auto result = PcoNetwork(mesh, config, rng).run();
    const double periods = result.convergence_time_s / config.period_s;
    EXPECT_GE(periods, 30.0);
    return static_cast<double>(result.total_firings) / (10.0 * periods);
  };
  EXPECT_GT(firings_per_device_period(0.0), 10.0);
  EXPECT_NEAR(firings_per_device_period(0.01), 1.0, 0.1);
}

TEST(PcoDelay, RefractorySuppressesEcho) {
  // Without refractory, two coupled oscillators with delay can ping-pong;
  // with a refractory window longer than the delay they settle.
  graph::Graph pair(2);
  pair.add_edge(0, 1, 1.0);
  PcoNetworkConfig config;
  config.prc = pco::PrcParams{3.0, 0.5};
  config.delay_s = 0.004;
  config.refractory_s = 0.01;
  config.spread_tolerance = 0.06;
  config.max_time_s = 100.0;
  util::Rng rng(5);
  const auto result = PcoNetwork(pair, config, rng).run();
  EXPECT_TRUE(result.converged);
}

}  // namespace
