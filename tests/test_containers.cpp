// Tests for the flat hash containers on the delivery hot path: the ST dedup
// set (util/flat_set.hpp) and the per-device neighbour table
// (core/neighbor_table.hpp), including the slot sizes their memory budget
// depends on, the iteration order the protocols' tie-breaks depend on, and
// the horizon bound the neighbour slot's 32-bit last-heard stamp needs.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/neighbor_table.hpp"
#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "proto/st.hpp"
#include "util/flat_set.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;
using core::NeighborTable;
using util::FlatU32Set;

constexpr std::uint32_t kEmptyId = 0xFFFFFFFFU;

// A 16 B NeighborInfo behind a 4 B key and its 4 B pad: a 24 B slot, eight
// slots per three cache lines.
static_assert(sizeof(core::NeighborInfo) == 16);
static_assert(sizeof(NeighborTable::value_type) == 24);
// The dedup set holds 32-bit slots plus a count and the sentinel-key flag in
// the 8 B after its vector, so the two sets in core::Device cost no more
// than they did with 64-bit slots.
static_assert(sizeof(FlatU32Set) == sizeof(std::vector<std::uint32_t>) + 8);

TEST(FlatU32Set, StoresZeroAndTheSentinelKey) {
  FlatU32Set set;
  EXPECT_EQ(set.size(), 0U);
  EXPECT_FALSE(set.contains(0U));
  EXPECT_FALSE(set.contains(0xFFFFFFFFU));
  EXPECT_TRUE(set.insert(0xFFFFFFFFU));
  EXPECT_FALSE(set.insert(0xFFFFFFFFU));
  EXPECT_TRUE(set.contains(0xFFFFFFFFU));
  EXPECT_FALSE(set.contains(0U));
  EXPECT_EQ(set.size(), 1U);
  EXPECT_TRUE(set.insert(0U));
  EXPECT_FALSE(set.insert(0U));
  EXPECT_TRUE(set.contains(0U));
  EXPECT_EQ(set.size(), 2U);
  EXPECT_FALSE(set.contains(0xFFFFFFFEU));
  EXPECT_FALSE(set.contains(1U));
}

TEST(FlatU32Set, KeepsMembershipAcrossRehashes) {
  // 5000 random keys force the 16-slot table through nine doublings; the
  // set must agree with std::set on every insert and every probe.
  FlatU32Set set;
  std::set<std::uint32_t> reference;
  util::SplitMix64 rng(11);
  std::vector<std::uint32_t> keys = {0U, 0xFFFFFFFFU, 1U, 0xFFFFFFFEU};
  for (int i = 0; i < 5000; ++i) keys.push_back(static_cast<std::uint32_t>(rng.next()));
  for (const std::uint32_t k : keys) {
    EXPECT_EQ(set.insert(k), reference.insert(k).second) << k;
    EXPECT_EQ(set.size(), reference.size());
  }
  for (const std::uint32_t k : keys) EXPECT_TRUE(set.contains(k)) << k;
  for (int i = 0; i < 5000; ++i) {
    const auto k = static_cast<std::uint32_t>(rng.next());
    EXPECT_EQ(set.contains(k), reference.count(k) == 1) << k;
  }
}

TEST(FlatU32Set, ClearEmptiesEveryKeyIncludingTheSentinel) {
  FlatU32Set set;
  for (std::uint32_t k = 0; k < 100; ++k) set.insert(k * 7919U);
  set.insert(0xFFFFFFFFU);
  set.clear();
  EXPECT_EQ(set.size(), 0U);
  EXPECT_EQ(set.size(), 0U);
  EXPECT_FALSE(set.contains(0xFFFFFFFFU));
  for (std::uint32_t k = 0; k < 100; ++k) EXPECT_FALSE(set.contains(k * 7919U)) << k;
  // A cleared set refills normally.
  EXPECT_TRUE(set.insert(7919U));
  EXPECT_TRUE(set.insert(0xFFFFFFFFU));
  EXPECT_EQ(set.size(), 2U);
}

TEST(NeighborTable, IterationOrderIsFixedAcrossRehashes) {
  // 300 draws over 5000 ids (291 distinct) grow the table from 16 to 512
  // slots.  best_outgoing breaks weight ties by iteration order, so the
  // order must be the one the table has always produced: the digest was
  // recorded on the 40 B-slot layout, and an independent linear-probing
  // model must give the same sequence.
  NeighborTable table;
  std::vector<std::uint32_t> model(16, kEmptyId);
  std::size_t model_size = 0;
  const auto model_probe = [&](std::uint32_t key) {
    const std::size_t mask = model.size() - 1;
    std::size_t slot = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (model[slot] != kEmptyId && model[slot] != key) slot = (slot + 1) & mask;
    return slot;
  };
  util::SplitMix64 keys(2015);
  for (int i = 0; i < 300; ++i) {
    const auto key = static_cast<std::uint32_t>(keys.next() % 5000U);
    ++table[key].service;
    if (model[model_probe(key)] == key) continue;
    if ((model_size + 1) * 4 > model.size() * 3) {
      std::vector<std::uint32_t> old(model.size() * 2, kEmptyId);
      old.swap(model);
      for (const std::uint32_t k : old) {
        if (k != kEmptyId) model[model_probe(k)] = k;
      }
    }
    model[model_probe(key)] = key;
    ++model_size;
  }
  std::vector<std::uint32_t> expected;
  for (const std::uint32_t k : model) {
    if (k != kEmptyId) expected.push_back(k);
  }
  std::vector<std::uint32_t> order;
  std::uint32_t heard = 0;
  std::uint64_t digest = 14695981039346656037ULL;  // FNV-1a over the keys
  for (const auto& [key, info] : table) {
    order.push_back(key);
    heard += info.service;
    digest = (digest ^ key) * 1099511628211ULL;
  }
  EXPECT_EQ(model.size(), 512U);
  EXPECT_EQ(order.size(), 291U);
  EXPECT_EQ(heard, 300U);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(digest, 0xb2dca8a9804773abULL);
}

// A neighbour entry stamps its last-heard slot in 32 bits, so a horizon of
// 2^31 slots or more is refused before any slot runs: a one-shot trial's
// max_slots() by the constructor, a soak's duration by run_service.
TEST(NeighborTable, HorizonsPast32BitSlotsAreRejectedUpFront) {
  core::ScenarioConfig config;
  config.n = 8;
  config.seed = 3;
  config.area_policy = core::AreaPolicy::kFixed;
  const std::vector<geo::Vec2> positions = core::deploy(config);
  constexpr std::int64_t kLimit = std::numeric_limits<std::int32_t>::max();

  core::ProtocolParams params = config.protocol;
  params.period_slots = 65'536;
  params.max_periods = 32'768;  // 2^31 slots
  ASSERT_GT(params.max_slots(), kLimit);
  EXPECT_THROW(proto::StEngine(positions, params, config.radio, config.seed),
               std::invalid_argument);
  params.max_periods = 32'767;  // 2^31 − 2^16 slots
  ASSERT_LE(params.max_slots(), kLimit);
  EXPECT_NO_THROW(proto::StEngine(positions, params, config.radio, config.seed));

  proto::StEngine engine(positions, config.protocol, config.radio, config.seed);
  core::ServiceConfig service;
  service.duration_slots = kLimit + 1;
  EXPECT_THROW((void)engine.run_service(service), std::invalid_argument);
  for (std::uint32_t i = 0; i < positions.size(); ++i) {
    EXPECT_EQ(engine.last_fire_slot(i), -1) << "device " << i << " fired";
    EXPECT_EQ(engine.neighbors(i).size(), 0U) << "device " << i << " heard a PS";
  }
}

}  // namespace
