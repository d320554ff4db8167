// Tests for path-loss models (src/phy/pathloss.hpp), pinned to the paper's
// Table I formulas.
#include "phy/pathloss.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace firefly::phy;
using firefly::util::Db;

TEST(PaperDualSlope, TableOneFormulaNearField) {
  PaperDualSlope model;
  // PL = 4.35 + 25·log10(d) for d < 6.
  EXPECT_NEAR(model.loss(1.0).value, 4.35, 1e-12);
  EXPECT_NEAR(model.loss(2.0).value, 4.35 + 25.0 * std::log10(2.0), 1e-12);
  EXPECT_NEAR(model.loss(5.9).value, 4.35 + 25.0 * std::log10(5.9), 1e-12);
}

TEST(PaperDualSlope, TableOneFormulaFarField) {
  PaperDualSlope model;
  // PL = 40.0 + 40·log10(d) for d >= 6.
  EXPECT_NEAR(model.loss(6.0).value, 40.0 + 40.0 * std::log10(6.0), 1e-12);
  EXPECT_NEAR(model.loss(10.0).value, 80.0, 1e-12);
  EXPECT_NEAR(model.loss(100.0).value, 120.0, 1e-12);
}

TEST(PaperDualSlope, MonotoneNonDecreasing) {
  PaperDualSlope model;
  double prev = -1e18;
  for (double d = 0.1; d < 500.0; d *= 1.07) {
    const double pl = model.loss(d).value;
    EXPECT_GE(pl, prev) << "at d=" << d;
    prev = pl;
  }
}

TEST(PaperDualSlope, ClampsBelowMinDistance) {
  PaperDualSlope model;
  EXPECT_DOUBLE_EQ(model.loss(0.0).value, model.loss(PathLossModel::kMinDistance).value);
  EXPECT_DOUBLE_EQ(model.loss(1e-9).value, model.loss(PathLossModel::kMinDistance).value);
}

TEST(PaperDualSlope, InversionRoundTripsBothRegimes) {
  PaperDualSlope model;
  for (const double d : {0.5, 2.0, 5.0, 6.0, 10.0, 50.0, 89.0, 300.0}) {
    const Db pl = model.loss(d);
    EXPECT_NEAR(model.distance_for_loss(pl), d, 1e-9) << "d=" << d;
  }
}

TEST(PaperDualSlope, GapLossesSnapToBreakpoint) {
  PaperDualSlope model;
  // Losses strictly between the near-field value at 6 m (~23.8 dB) and the
  // far-field value at 6 m (~71.1 dB) have no preimage.
  EXPECT_DOUBLE_EQ(model.distance_for_loss(Db{40.0}), PaperDualSlope::kBreakpoint);
  EXPECT_DOUBLE_EQ(model.distance_for_loss(Db{60.0}), PaperDualSlope::kBreakpoint);
}

TEST(PaperDualSlope, PaperLinkBudgetRange) {
  // 23 dBm - (-95 dBm) = 118 dB budget → d = 10^((118-40)/40) ≈ 89.1 m.
  PaperDualSlope model;
  EXPECT_NEAR(model.distance_for_loss(Db{118.0}), std::pow(10.0, 78.0 / 40.0), 1e-9);
}

TEST(Factories, ProduceExpectedModels) {
  const auto paper = make_paper_model();
  EXPECT_DOUBLE_EQ(paper->loss(10.0).value, PaperDualSlope{}.loss(10.0).value);
}

}  // namespace
