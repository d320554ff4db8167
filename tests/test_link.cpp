// Tests for link-quality estimates (src/phy/link.hpp).
#include "phy/link.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace {

using namespace firefly;

TEST(Link, SnrLinear) {
  EXPECT_DOUBLE_EQ(phy::snr_linear(util::Dbm{-94.0}, util::Dbm{-104.0}), 10.0);
  EXPECT_NEAR(phy::snr_linear(util::Dbm{-104.0}, util::Dbm{-104.0}), 1.0, 1e-12);
  EXPECT_LT(phy::snr_linear(util::Dbm{-110.0}, util::Dbm{-104.0}), 1.0);
}

TEST(Link, ErgodicRateBelowAwgnRateAtHighSnr) {
  // Jensen: E[log(1+γg)] < log(1+γ) for unit-mean g at any γ.  The AWGN
  // reference is the Shannon rate at the mean SNR: 10 MHz × log2(1 + γ).
  const util::Dbm signal{-70.0};
  const util::Dbm noise{-104.0};
  const double awgn = 10.0 * std::log2(1.0 + phy::snr_linear(signal, noise));
  const double ergodic = phy::rayleigh_ergodic_rate_mbps(signal, noise, 10e6);
  EXPECT_LT(ergodic, awgn);
  EXPECT_GT(ergodic, 0.7 * awgn);  // but within the known ~−2.5 dB penalty
}

TEST(Link, ErgodicRateMatchesMonteCarlo) {
  const util::Dbm mean{-85.0};
  const util::Dbm noise{-104.0};
  const double quad = phy::rayleigh_ergodic_rate_mbps(mean, noise, 10e6);
  util::Rng rng(7);
  double sum = 0.0;
  const int n = 400000;
  const double snr = phy::snr_linear(mean, noise);
  for (int i = 0; i < n; ++i) {
    sum += std::log2(1.0 + snr * rng.exponential(1.0));
  }
  const double mc = 10e6 * (sum / n) / 1e6;
  EXPECT_NEAR(quad, mc, 0.01 * mc);
}

}  // namespace
