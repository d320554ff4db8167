// Tests for synchronisation metrics and detectors (src/pco/sync_metrics.hpp).
#include "pco/sync_metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace firefly::pco;

TEST(CircularSpread, TightCluster) {
  const std::vector<double> phases{0.10, 0.12, 0.11, 0.13};
  EXPECT_NEAR(circular_spread(phases), 0.03, 1e-12);
}

TEST(CircularSpread, ClusterAcrossWrap) {
  // 0.98 and 0.02 are 0.04 apart on the circle, not 0.96.
  const std::vector<double> phases{0.98, 0.99, 0.01, 0.02};
  EXPECT_NEAR(circular_spread(phases), 0.04, 1e-12);
}

TEST(CircularSpread, DegenerateCases) {
  EXPECT_DOUBLE_EQ(circular_spread({}), 0.0);
  const std::vector<double> one{0.5};
  EXPECT_DOUBLE_EQ(circular_spread(one), 0.0);
  const std::vector<double> same{0.5, 0.5, 0.5};
  EXPECT_NEAR(circular_spread(same), 0.0, 1e-12);
}

TEST(CircularSpread, NormalisesPhasesOutsideUnit) {
  const std::vector<double> phases{1.98, -0.01, 0.02};  // ≡ 0.98, 0.99, 0.02
  EXPECT_NEAR(circular_spread(phases), 0.04, 1e-12);
}

TEST(ConvergenceDetector, RequiresAllDevicesToFire) {
  ConvergenceDetector det(3, 100, 2);
  det.record_fire(0, 10);
  det.record_fire(1, 11);
  EXPECT_FALSE(det.converged_at(50).has_value());
  EXPECT_EQ(det.spread_slots(), 100);
}

TEST(ConvergenceDetector, SustainedAlignmentConverges) {
  ConvergenceDetector det(3, 100, 2);
  det.record_fire(0, 10);
  det.record_fire(1, 11);
  det.record_fire(2, 12);
  EXPECT_FALSE(det.converged_at(20).has_value());  // not yet held a period
  // Next cycle, still aligned.
  det.record_fire(0, 110);
  det.record_fire(1, 111);
  det.record_fire(2, 112);
  const auto converged = det.converged_at(125);
  ASSERT_TRUE(converged.has_value());
  EXPECT_EQ(*converged, 20);  // first slot alignment was observed
}

TEST(ConvergenceDetector, MisalignmentResetsTheClock) {
  ConvergenceDetector det(2, 100, 2);
  det.record_fire(0, 10);
  det.record_fire(1, 11);
  EXPECT_FALSE(det.converged_at(20).has_value());
  det.record_fire(1, 160);  // drifted half a period
  EXPECT_FALSE(det.converged_at(170).has_value());
  det.record_fire(1, 210);
  det.record_fire(0, 210);
  EXPECT_FALSE(det.converged_at(220).has_value());
  EXPECT_TRUE(det.converged_at(330).has_value());
}

TEST(ConvergenceDetector, ToleranceBoundary) {
  ConvergenceDetector det(2, 100, 2);
  det.record_fire(0, 0);
  det.record_fire(1, 2);  // exactly at tolerance
  (void)det.converged_at(10);
  EXPECT_TRUE(det.converged_at(120).has_value());

  ConvergenceDetector det2(2, 100, 2);
  det2.record_fire(0, 0);
  det2.record_fire(1, 3);  // just outside
  (void)det2.converged_at(10);
  EXPECT_FALSE(det2.converged_at(120).has_value());
}

TEST(LocalSyncDetector, OnlyEdgesConstrainAlignment) {
  LocalSyncDetector det(3, 100, 2);
  det.add_edge(0, 1);
  // Device 2 has no edges: its phase is unconstrained (but it must fire).
  det.record_fire(0, 10);
  det.record_fire(1, 11);
  det.record_fire(2, 60);  // wildly different phase, no edge
  (void)det.converged_at(70);
  EXPECT_TRUE(det.converged_at(180).has_value());
}

TEST(LocalSyncDetector, ViolatedEdgeBlocksConvergence) {
  LocalSyncDetector det(3, 100, 2);
  det.add_edge(0, 1);
  det.add_edge(1, 2);
  det.record_fire(0, 10);
  det.record_fire(1, 11);
  det.record_fire(2, 60);
  (void)det.converged_at(70);
  EXPECT_FALSE(det.converged_at(180).has_value());
}

TEST(LocalSyncDetector, WrapAroundAlignment) {
  LocalSyncDetector det(2, 100, 2);
  det.add_edge(0, 1);
  det.record_fire(0, 99);
  det.record_fire(1, 101);  // 99 vs 1 mod 100: circular distance 2
  (void)det.converged_at(110);
  EXPECT_TRUE(det.converged_at(220).has_value());
}

}  // namespace
