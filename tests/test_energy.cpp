// Tests for the energy meter (src/phy/energy.hpp) and its protocol
// integration.
#include "phy/energy.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"

namespace {

using firefly::phy::EnergyMeter;
using firefly::phy::EnergyParams;

TEST(EnergyMeter, IdleOnlyDevice) {
  EnergyMeter meter(2);
  // 1000 slots of pure idle at 10 mW, 1 ms each = 10 mJ.
  EXPECT_NEAR(meter.device_energy_mj(0, 1000), 10.0, 1e-9);
}

TEST(EnergyMeter, ActivityCharges) {
  EnergyParams params;
  params.tx_mw = 700.0;
  params.rx_mw = 300.0;
  params.idle_mw = 10.0;
  EnergyMeter meter(1, params);
  for (int i = 0; i < 5; ++i) meter.record_tx(0);
  for (int i = 0; i < 20; ++i) meter.record_rx(0);
  // 5 tx + 20 rx + 75 idle slots over 100 slots.
  const double expected = (5 * 700.0 + 20 * 300.0 + 75 * 10.0) * 1e-3;
  EXPECT_NEAR(meter.device_energy_mj(0, 100), expected, 1e-9);
}

TEST(EnergyMeter, BusySlotsNeverGoNegative) {
  EnergyMeter meter(1);
  for (int i = 0; i < 50; ++i) meter.record_rx(0);
  // More activity than elapsed slots: idle clamps at zero.
  const double expected = 50 * 300.0 * 1e-3;
  EXPECT_NEAR(meter.device_energy_mj(0, 10), expected, 1e-9);
}

TEST(EnergyMeter, TotalsAndMeans) {
  EnergyMeter meter(4);
  meter.record_tx(1);
  meter.record_rx(2);
  const double total = meter.total_energy_mj(100);
  EXPECT_NEAR(meter.mean_energy_mj(100), total / 4.0, 1e-12);
  EXPECT_GT(total, 4 * 100 * 10.0 * 1e-3 - 1e-9);  // at least the idle floor
}

TEST(EnergyMeter, CustomSlotLength) {
  EnergyParams params;
  params.slot_seconds = 0.5e-3;  // short TTI
  EnergyMeter meter(1, params);
  EXPECT_NEAR(meter.device_energy_mj(0, 1000), 0.5 * 10.0, 1e-9);
}

TEST(EnergyIntegration, ProtocolsReportEnergy) {
  firefly::core::ScenarioConfig config;
  config.n = 25;
  config.seed = 5;
  config.area_policy = firefly::core::AreaPolicy::kFixed;
  for (const auto protocol :
       {firefly::core::Protocol::kFst, firefly::core::Protocol::kSt}) {
    const auto m = firefly::core::run_trial(protocol, config);
    ASSERT_TRUE(m.converged);
    EXPECT_GT(m.total_energy_mj, 0.0);
    EXPECT_NEAR(m.mean_device_energy_mj, m.total_energy_mj / 25.0, 1e-9);
    EXPECT_GT(m.energy_per_neighbor_mj, 0.0);
    // Energy must be at least the idle floor over the simulated span.
    const double idle_floor = m.simulated_ms * 10.0 * 1e-3;
    EXPECT_GE(m.mean_device_energy_mj, idle_floor - 1e-6);
  }
}

TEST(EnergyIntegration, EnergyCrossoverAtScale) {
  // Below the crossover ST spends more energy (its spread-out discovery
  // beacons and sync floods are all *decoded*, and decoding costs energy,
  // while most of FST's synchronised beacons collide and are never
  // decoded).  At scale FST's ever-longer convergence dominates and ST
  // wins.  Pin both ends of that story.
  firefly::core::ScenarioConfig config;
  config.seed = 3;
  config.area_policy = firefly::core::AreaPolicy::kDensityScaled;

  config.n = 150;
  const auto fst_small = firefly::core::run_trial(firefly::core::Protocol::kFst, config);
  const auto st_small = firefly::core::run_trial(firefly::core::Protocol::kSt, config);
  ASSERT_TRUE(fst_small.converged);
  ASSERT_TRUE(st_small.converged);
  EXPECT_LT(fst_small.mean_device_energy_mj, st_small.mean_device_energy_mj);

  config.n = 600;
  const auto fst_large = firefly::core::run_trial(firefly::core::Protocol::kFst, config);
  const auto st_large = firefly::core::run_trial(firefly::core::Protocol::kSt, config);
  ASSERT_TRUE(fst_large.converged);
  ASSERT_TRUE(st_large.converged);
  EXPECT_GT(fst_large.convergence_ms, st_large.convergence_ms);
  // The robust shape claim: FST's relative energy cost grows with scale
  // (the absolute crossover point wanders with seeds and capture physics).
  const double ratio_small = fst_small.mean_device_energy_mj / st_small.mean_device_energy_mj;
  const double ratio_large = fst_large.mean_device_energy_mj / st_large.mean_device_energy_mj;
  EXPECT_GT(ratio_large, ratio_small);
}

}  // namespace
