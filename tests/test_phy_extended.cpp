// Tests for the noise floor in the capture rule.
#include <gtest/gtest.h>

#include <memory>

#include "mac/radio.hpp"
#include "phy/channel.hpp"
#include "phy/fading.hpp"
#include "phy/shadowing.hpp"
#include "test_worlds.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;
using util::Rng;

TEST(NoiseFloor, DefaultSitsBelowDetectionThreshold) {
  const phy::RadioParams params;
  EXPECT_LT(params.noise_floor.value, params.detection_threshold.value);
  EXPECT_NEAR(params.detection_threshold.value - params.noise_floor.value, 9.0, 1e-9);
}

TEST(NoiseFloor, NoiseBreaksMarginalCapture) {
  // Geometry built so the wanted signal arrives at −60 dBm and the
  // same-preamble interferer at −64 dBm: 4 dB of SIR, just above the 3 dB
  // capture margin.  With a negligible noise floor the capture succeeds;
  // raising the noise floor to the interferer's level (−64 dBm) turns the
  // denominator into −61 dBm, SINR drops to 1 dB, and the capture fails.
  auto run_with_noise = [](double noise_dbm) {
    sim::Simulator sim;
    phy::RadioParams params;
    params.noise_floor = util::Dbm{noise_dbm};
    auto channel = std::make_unique<phy::Channel>(
        params, std::make_unique<phy::PaperDualSlope>(),
        std::make_unique<phy::NoShadowing>(), std::make_unique<phy::NoFading>(),
        Rng(1));
    mac::RadioMedium radio(&sim, channel.get());
    int heard = 0;
    // PL(d)=83 dB -> d=10^(43/40)≈11.885 m: rx = 23−83 = −60 dBm.
    radio.add_device(0, {10.0 + 11.885, 0.0});
    // PL(d)=87 dB -> d≈14.962 m on the other side: rx = −64 dBm.
    radio.add_device(1, {10.0 - 14.962, 0.0});
    radio.set_delivery_sink([&](const mac::RxBatch& batch) {
      for (std::size_t k = 0; k < batch.count; ++k) {
        if (batch[k].rx_index == 2 && batch[k].sender == 0) ++heard;
      }
    });
    radio.add_device(2, {10.0, 0.0});
    radio.rebuild();
    sim.schedule_at(0, [&] {
      radio.broadcast(0, {mac::RachCodec::kRach1, 9}, mac::PsType::kSyncPulse, 0);
      radio.broadcast(1, {mac::RachCodec::kRach1, 9}, mac::PsType::kSyncPulse, 0);
    });
    sim.run();
    return heard;
  };
  EXPECT_EQ(run_with_noise(-200.0), 1);  // quiet: capture succeeds
  EXPECT_EQ(run_with_noise(-64.0), 0);   // noisy: capture fails
}

}  // namespace
