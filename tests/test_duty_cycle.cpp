// Tests for the duty-cycling extension: gated reception, energy accounting
// and the latency/energy trade-off the power-saving literature predicts.
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "mac/radio.hpp"
#include "phy/energy.hpp"

namespace {

using namespace firefly;

TEST(DutyCycleParams, AwakeFraction) {
  core::ProtocolParams params;
  EXPECT_FALSE(params.duty_cycled());
  EXPECT_DOUBLE_EQ(params.awake_fraction(), 1.0);
  params.duty_awake_slots = 25;
  params.duty_period_slots = 100;
  EXPECT_TRUE(params.duty_cycled());
  EXPECT_DOUBLE_EQ(params.awake_fraction(), 0.25);
  params.duty_awake_slots = 100;
  EXPECT_FALSE(params.duty_cycled());  // fully awake
}

TEST(DutyCycleRadio, SleepingReceiverHearsNothing) {
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(1);
  mac::RadioMedium radio(&sim, channel.get());
  int awake_heard = 0, asleep_heard = 0;
  radio.add_device(0, {0.0, 0.0});
  radio.add_device(1, {10.0, 0.0}, [] { return true; });
  radio.add_device(2, {10.0, 1.0}, [] { return false; });
  radio.rebuild();
  radio.set_delivery_sink([&](const mac::RxBatch& batch) {
    for (std::size_t k = 0; k < batch.count; ++k) {
      if (batch[k].rx_index == 1) ++awake_heard;
      if (batch[k].rx_index == 2) ++asleep_heard;
    }
  });
  sim.schedule_at(0, [&] {
    radio.broadcast(0, {mac::RachCodec::kRach1, 0}, mac::PsType::kSyncPulse, 0);
  });
  sim.run();
  EXPECT_EQ(awake_heard, 1);
  EXPECT_EQ(asleep_heard, 0);
}

TEST(DutyCycleEnergy, SleepSlotsAreCheap) {
  phy::EnergyParams params;
  phy::EnergyMeter meter(1, params);
  const double always_on = meter.device_energy_mj(0, 1000, 1.0);
  const double quarter = meter.device_energy_mj(0, 1000, 0.25);
  // 25% awake at 10 mW + 75% asleep at 0.1 mW.
  EXPECT_NEAR(always_on, 10.0, 1e-9);
  EXPECT_NEAR(quarter, (250.0 * 10.0 + 750.0 * 0.1) * 1e-3, 1e-9);
  EXPECT_LT(quarter, always_on);
}

TEST(DutyCycleProtocol, StStillConvergesAtHalfDuty) {
  core::ScenarioConfig config;
  config.n = 30;
  config.seed = 12;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.duty_awake_slots = 50;
  config.protocol.duty_period_slots = 100;
  config.protocol.max_periods = 600;
  const auto m = core::run_trial(core::Protocol::kSt, config);
  EXPECT_TRUE(m.converged);
}

TEST(DutyCycleProtocol, LatencyEnergyTradeoff) {
  // The classic duty-cycling result: lower duty -> slower discovery but
  // less energy per unit time; pin both directions.
  core::ScenarioConfig config;
  config.n = 30;
  config.seed = 14;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 800;

  const auto always_on = core::run_trial(core::Protocol::kSt, config);

  // Below ~50% duty the strict sustained-global-alignment criterion starts
  // failing outright (residual PRC jitter on the partially-listening
  // population) — itself a finding; the trade-off test uses 50%.
  config.protocol.duty_awake_slots = 50;
  config.protocol.duty_period_slots = 100;
  const auto half = core::run_trial(core::Protocol::kSt, config);

  ASSERT_TRUE(always_on.converged);
  ASSERT_TRUE(half.converged);
  EXPECT_GT(half.convergence_ms, always_on.convergence_ms);
  // Energy per simulated millisecond must be lower when duty cycled.
  const double rate_on = always_on.mean_device_energy_mj / always_on.simulated_ms;
  const double rate_half = half.mean_device_energy_mj / half.simulated_ms;
  EXPECT_LT(rate_half, rate_on);
}

TEST(DutyCycleProtocol, DeterministicWithDutyCycle) {
  core::ScenarioConfig config;
  config.n = 25;
  config.seed = 16;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.duty_awake_slots = 40;
  config.protocol.duty_period_slots = 100;
  config.protocol.max_periods = 600;
  const auto a = core::run_trial(core::Protocol::kSt, config);
  const auto b = core::run_trial(core::Protocol::kSt, config);
  EXPECT_EQ(a.total_messages(), b.total_messages());
  EXPECT_DOUBLE_EQ(a.convergence_ms, b.convergence_ms);
}

}  // namespace
