// Tests for the RACH codec abstraction (src/mac/rach.hpp).
#include "mac/rach.hpp"

#include <gtest/gtest.h>

namespace {

using namespace firefly::mac;

TEST(Rach, SameResourceRequiresCodecAndIndex) {
  const Preamble a{RachCodec::kRach1, 5};
  const Preamble b{RachCodec::kRach1, 5};
  const Preamble c{RachCodec::kRach2, 5};   // other codec: orthogonal (OFDMA)
  const Preamble d{RachCodec::kRach1, 6};   // other preamble: orthogonal ZC
  EXPECT_TRUE(same_resource(a, b));
  EXPECT_FALSE(same_resource(a, c));
  EXPECT_FALSE(same_resource(a, d));
}

TEST(Rach, DeterministicPreambleAssignment) {
  const Preamble p = preamble_for_device(RachCodec::kRach1, 7);
  EXPECT_EQ(p.codec, RachCodec::kRach1);
  EXPECT_EQ(p.index, 7U);
  // Wraps modulo the pool.
  EXPECT_EQ(preamble_for_device(RachCodec::kRach2, kPreamblePoolSize + 3).index, 3U);
}

TEST(Rach, PoolSizeMatchesLte) {
  EXPECT_EQ(kPreamblePoolSize, 64U);  // 3GPP 36.211: 64 preambles per cell
}

}  // namespace
