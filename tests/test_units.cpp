// Unit tests for the dB/dBm strong types (src/util/units.hpp).
#include "util/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace {

using namespace firefly::util;
using namespace firefly::util::literals;

TEST(Units, DbmToMilliwattsKnownValues) {
  EXPECT_DOUBLE_EQ(Dbm{0.0}.milliwatts(), 1.0);
  EXPECT_DOUBLE_EQ(Dbm{10.0}.milliwatts(), 10.0);
  EXPECT_DOUBLE_EQ(Dbm{30.0}.milliwatts(), 1000.0);
  EXPECT_NEAR(Dbm{23.0}.milliwatts(), 199.526, 1e-3);  // the paper's device power
  EXPECT_NEAR(Dbm{-95.0}.milliwatts(), 3.1623e-10, 1e-13);
}

TEST(Units, RoundTripThroughMilliwatts) {
  for (double v : {-120.0, -95.0, -40.0, 0.0, 23.0, 46.0}) {
    EXPECT_NEAR(dbm_from_milliwatts(Dbm{v}.milliwatts()).value, v, 1e-9);
  }
}

TEST(Units, ZeroPowerMapsToNegativeInfinity) {
  EXPECT_EQ(dbm_from_milliwatts(0.0).value, -std::numeric_limits<double>::infinity());
}

TEST(Units, GainArithmeticKeepsTypes) {
  const Dbm power = 23.0_dBm;
  const Db loss{118.0};
  const Dbm received = power - loss;
  EXPECT_DOUBLE_EQ(received.value, -95.0);
  const Db difference = power - received;
  EXPECT_DOUBLE_EQ(difference.value, 118.0);
}

TEST(Units, DbRatio) {
  EXPECT_DOUBLE_EQ(Db{3.0103}.ratio(), std::pow(10.0, 0.30103));
  EXPECT_NEAR(Db{10.0}.ratio(), 10.0, 1e-12);
}

TEST(Units, ComparisonOperators) {
  EXPECT_LT(Dbm{-95.0}, Dbm{-90.0});
  EXPECT_GT(Db{10.0}, Db{3.0});
  EXPECT_EQ(Dbm{23.0}, 23.0_dBm);
}

TEST(Units, ToStringIncludesUnit) {
  EXPECT_NE(to_string(Dbm{-95.0}).find("dBm"), std::string::npos);
}

}  // namespace
