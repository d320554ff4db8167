// Tests for the RACH codec abstraction (src/mac/rach.hpp).
#include "mac/rach.hpp"

#include <gtest/gtest.h>

namespace {

using namespace firefly::mac;

TEST(Rach, PoolSizeMatchesLte) {
  EXPECT_EQ(kPreamblePoolSize, 64U);  // 3GPP 36.211: 64 preambles per cell
}

}  // namespace
