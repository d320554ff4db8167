// Tests for the Mirollo–Strogatz PRC (src/pco/prc.hpp), eq. (5), and the
// engines' check of its convergence condition.
#include "pco/prc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/scenario.hpp"

namespace {

using namespace firefly::pco;
namespace core = firefly::core;

TEST(Prc, EquationFiveValues) {
  const PrcParams p{3.0, 0.05};
  EXPECT_NEAR(p.alpha(), std::exp(0.15), 1e-12);
  EXPECT_NEAR(p.beta(), (std::exp(0.15) - 1.0) / (std::exp(3.0) - 1.0), 1e-12);
}

TEST(Prc, ConvergenceConditionAlphaAboveOneBetaPositive) {
  // Mirollo–Strogatz: a > 0 and ε > 0 ⇒ α > 1 and β > 0 ⇒ convergence.
  for (const double a : {0.5, 1.0, 3.0, 8.0}) {
    for (const double eps : {0.01, 0.05, 0.2}) {
      const PrcParams p{a, eps};
      EXPECT_TRUE(p.valid_for_convergence());
      EXPECT_GT(p.alpha(), 1.0);
      EXPECT_GT(p.beta(), 0.0);
    }
  }
  EXPECT_FALSE((PrcParams{3.0, 0.0}).valid_for_convergence());
  EXPECT_FALSE((PrcParams{-1.0, 0.1}).valid_for_convergence());
}

TEST(Prc, EnginesRejectCouplingOutsideTheConvergenceCondition) {
  // ε = 0 never couples; a = 0 makes β divide by zero.
  for (const core::Protocol protocol : {core::Protocol::kSt, core::Protocol::kFst,
                                        core::Protocol::kBirthday, core::Protocol::kDesync}) {
    for (const PrcParams prc : {PrcParams{3.0, 0.0}, PrcParams{0.0, 0.05}}) {
      core::ScenarioConfig config;
      config.n = 10;
      config.protocol.prc = prc;
      EXPECT_THROW(static_cast<void>(core::run_trial(protocol, config)), std::invalid_argument)
          << core::to_string(protocol) << " a=" << prc.dissipation_a << " eps=" << prc.epsilon;
    }
  }
}

TEST(Prc, ReturnMapSaturatesAtOne) {
  const PrcParams p{3.0, 0.5};
  EXPECT_DOUBLE_EQ(apply_prc(1.0, p), 1.0);
  EXPECT_DOUBLE_EQ(apply_prc(0.99, p), 1.0);
  EXPECT_LT(apply_prc(0.0, p), 1.0);
}

TEST(Prc, ReturnMapIsMonotone) {
  const PrcParams p{3.0, 0.05};
  double prev = -1.0;
  for (double theta = 0.0; theta <= 1.0; theta += 0.01) {
    const double jumped = apply_prc(theta, p);
    EXPECT_GE(jumped, prev);
    EXPECT_GE(jumped, theta);  // excitatory: never decreases the phase
    prev = jumped;
  }
}

// Smallest θ from which one pulse fires at once: α·θ* + β = 1.
double absorption_threshold(const PrcParams& p) { return (1.0 - p.beta()) / p.alpha(); }

TEST(Prc, PhaseResponseAtZeroIsBeta) {
  const PrcParams p{3.0, 0.05};
  EXPECT_NEAR(apply_prc(0.0, p), p.beta(), 1e-12);
}

TEST(Prc, PhaseResponseGrowsWithPhaseBelowSaturation) {
  // Δθ(θ) = apply_prc(θ) − θ = (α−1)θ + β is increasing until the min()
  // clamps it.
  const PrcParams p{3.0, 0.05};
  const double threshold = absorption_threshold(p);
  double prev = 0.0;
  for (double theta = 0.0; theta < threshold; theta += 0.02) {
    const double response = apply_prc(theta, p) - theta;
    EXPECT_GE(response, prev - 1e-12);
    prev = response;
  }
}

TEST(Prc, AbsorptionThresholdSeparatesFiring) {
  const PrcParams p{3.0, 0.05};
  const double theta_star = absorption_threshold(p);
  EXPECT_GT(theta_star, 0.0);
  EXPECT_LT(theta_star, 1.0);
  EXPECT_DOUBLE_EQ(apply_prc(theta_star, p), 1.0);
  EXPECT_LT(apply_prc(theta_star - 0.01, p), 1.0);
}

TEST(Prc, StrongCouplingAbsorbsEverything) {
  // β >= 1 means even phase 0 fires immediately.
  const PrcParams p{0.1, 30.0};
  EXPECT_GE(p.beta(), 1.0);
  EXPECT_DOUBLE_EQ(apply_prc(0.0, p), 1.0);
}

TEST(Prc, StrongerCouplingJumpsFurther) {
  const PrcParams weak{3.0, 0.01};
  const PrcParams strong{3.0, 0.2};
  for (double theta = 0.1; theta < 0.8; theta += 0.1) {
    EXPECT_GT(apply_prc(theta, strong), apply_prc(theta, weak));
  }
  EXPECT_LT(absorption_threshold(strong), absorption_threshold(weak));
}

}  // namespace
