// Tests for the in-place candidate-cache build (RadioMedium::rebuild): the
// cache equals a brute-force exhaustive scan of every pair, with and without
// grid-gathered rows, after every device moves, and on a pair that only the
// reject guard's exact margin admits; the tabulated skip bound
// (mac::SkipTable) is never tighter than the per-link bound and at most one
// bucket looser, the cached mW mean is the dBm mean's `milliwatts()` bit for
// bit, the compacted slices are contiguous where exact admission rejects
// bound survivors, a medium rebuilt after moves equals a fresh one, and the
// edge sizes and a non-finite margin behave.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <ranges>
#include <stdexcept>
#include <vector>

#include "core/scenario.hpp"
#include "geo/point.hpp"
#include "mac/radio.hpp"
#include "phy/channel.hpp"
#include "phy/fading.hpp"
#include "phy/pathloss.hpp"
#include "phy/shadowing.hpp"
#include "test_worlds.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;
using mac::RadioMedium;
using mac::SkipTable;

constexpr double kMargin = phy::RadioParams::kCandidateFadingMarginDb;

/// The table's bucket width at the default margin.
double bucket_width() {
  return (SkipTable::kMaxLossDb + kMargin) / static_cast<double>(SkipTable::kBuckets);
}

std::unique_ptr<phy::Channel> paper_channel_with(std::unique_ptr<phy::FadingModel> fading,
                                                 std::uint64_t seed) {
  const phy::RadioParams params;
  return std::make_unique<phy::Channel>(
      params, phy::make_paper_model(),
      std::make_unique<phy::PerLinkShadowing>(params.shadowing_sigma_db, seed),
      std::move(fading), util::Rng(seed));
}

std::vector<geo::Vec2> scatter(std::size_t n, double side, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<geo::Vec2> pos(n);
  for (geo::Vec2& p : pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  return pos;
}

void add_all(RadioMedium& radio, const std::vector<geo::Vec2>& pos) {
  for (std::uint32_t id = 0; id < pos.size(); ++id) radio.add_device(id, pos[id]);
}

template <typename Range>
std::vector<std::uint64_t> bits(const Range& values) {
  using T = std::ranges::range_value_t<Range>;
  std::vector<std::uint64_t> out;
  for (const T x : values) {
    if constexpr (sizeof(T) == 8) {
      out.push_back(std::bit_cast<std::uint64_t>(x));
    } else {
      out.push_back(std::bit_cast<std::uint32_t>(x));
    }
  }
  return out;
}

/// Every field of two caches, bit for bit.
void expect_same_cache(const RadioMedium& a, const RadioMedium& b) {
  const RadioMedium::CandidateView x = a.candidates();
  const RadioMedium::CandidateView y = b.candidates();
  EXPECT_TRUE(std::ranges::equal(x.offsets, y.offsets));
  EXPECT_TRUE(std::ranges::equal(x.rx, y.rx));
  EXPECT_EQ(bits(x.mean_dbm), bits(y.mean_dbm));
  EXPECT_EQ(bits(x.mean_mw), bits(y.mean_mw));
  EXPECT_EQ(bits(x.skip), bits(y.skip));
}

/// The cache an exhaustive scan builds over `pos` (device id = index): every
/// pair u < v through `Channel::mean_received_power`, admitted unless
/// `mean < cutoff` as the rebuild's rule reads, with the mean in mW and the
/// skip bound of a SkipTable at the default margin, on both sides of the
/// pair.  Rows ascend, so every slice lists its receivers ascending.
struct ScannedCache {
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> rx;
  std::vector<double> mean_dbm;
  std::vector<double> mean_mw;
  std::vector<float> skip;
};

ScannedCache exhaustive_scan(const phy::Channel& channel, const std::vector<geo::Vec2>& pos) {
  const util::Dbm threshold = channel.params().detection_threshold;
  const util::Dbm cutoff = threshold - util::Db{kMargin};
  SkipTable table;
  table.build(channel.fading(), kMargin);
  struct Entry {
    std::uint32_t rx;
    util::Dbm mean;
  };
  std::vector<std::vector<Entry>> slices(pos.size());
  for (std::uint32_t u = 0; u < pos.size(); ++u) {
    for (std::uint32_t v = u + 1; v < pos.size(); ++v) {
      const util::Dbm mean = channel.mean_received_power(u, pos[u], v, pos[v]);
      if (mean < cutoff) continue;
      slices[u].push_back({v, mean});
      slices[v].push_back({u, mean});
    }
  }
  ScannedCache scan;
  scan.offsets.push_back(0);
  for (const std::vector<Entry>& slice : slices) {
    for (const Entry& e : slice) {
      scan.rx.push_back(e.rx);
      scan.mean_dbm.push_back(e.mean.value);
      scan.mean_mw.push_back(e.mean.milliwatts());
      scan.skip.push_back(table.bound((e.mean - threshold).value));
    }
    scan.offsets.push_back(scan.rx.size());
  }
  return scan;
}

/// The radio's cache equals the exhaustive scan's, bit for bit.  Returns
/// the number of admitted pairs.
std::size_t expect_matches_exhaustive_scan(const RadioMedium& radio, const phy::Channel& channel,
                                           const std::vector<geo::Vec2>& pos) {
  const RadioMedium::CandidateView c = radio.candidates();
  const ScannedCache scan = exhaustive_scan(channel, pos);
  EXPECT_TRUE(std::ranges::equal(c.offsets, scan.offsets));
  EXPECT_TRUE(std::ranges::equal(c.rx, scan.rx));
  EXPECT_EQ(bits(c.mean_dbm), bits(scan.mean_dbm));
  EXPECT_EQ(bits(c.mean_mw), bits(scan.mean_mw));
  EXPECT_EQ(bits(c.skip), bits(scan.skip));
  return scan.rx.size() / 2;
}

/// The squared diagonal of the bounding box of `pos`, as the rebuild takes
/// it.
double bounding_box_d2(const std::vector<geo::Vec2>& pos) {
  geo::Vec2 lo = pos[0];
  geo::Vec2 hi = pos[0];
  for (const geo::Vec2 p : pos) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  return geo::distance_squared(lo, hi);
}

/// Whether the rebuild gathers its rows through the grid over `pos`: the
/// candidate range disc does not cover the world's bounding box.
bool rows_are_gathered(const phy::Channel& channel, const std::vector<geo::Vec2>& pos) {
  const double range = channel.max_detectable_range(kMargin);
  return range * range < bounding_box_d2(pos);
}

/// Offsets partition [0, size), each slice is strictly ascending without
/// the sender itself, and every pair appears on both sides with the same
/// mean.
void expect_contiguous_slices(const RadioMedium& radio, std::size_t n) {
  const RadioMedium::CandidateView c = radio.candidates();
  ASSERT_EQ(c.offsets.size(), n + 1);
  EXPECT_EQ(c.offsets.front(), 0U);
  EXPECT_EQ(c.offsets.back(), c.rx.size());
  for (std::size_t u = 0; u < n; ++u) {
    ASSERT_LE(c.offsets[u], c.offsets[u + 1]);
    for (std::size_t k = c.offsets[u]; k < c.offsets[u + 1]; ++k) {
      EXPECT_NE(c.rx[k], u);
      if (k > c.offsets[u]) {
        EXPECT_LT(c.rx[k - 1], c.rx[k]);
      }
      const std::uint32_t v = c.rx[k];
      const auto first = c.rx.begin() + static_cast<std::ptrdiff_t>(c.offsets[v]);
      const auto last = c.rx.begin() + static_cast<std::ptrdiff_t>(c.offsets[v + 1]);
      const auto back = std::lower_bound(first, last, static_cast<std::uint32_t>(u));
      ASSERT_TRUE(back != last && *back == u) << u << " missing from " << v << "'s slice";
      const auto kb = static_cast<std::size_t>(back - c.rx.begin());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c.mean_dbm[k]),
                std::bit_cast<std::uint64_t>(c.mean_dbm[kb]));
    }
  }
}

/// A uniform survives while u < skip, so a cached bound may only be loose
/// upward, and by at most one bucket of headroom.
void expect_loose_by_at_most_one_bucket(const phy::FadingModel& fading, float cached,
                                        double headroom_db, double width_db) {
  const float exact = SkipTable::exact(fading, headroom_db);
  const float bucket_looser =
      SkipTable::exact(fading, headroom_db + width_db + 2.0 * SkipTable::kEdgeSlackDb);
  EXPECT_GE(cached, exact) << "h = " << headroom_db;
  EXPECT_LE(cached, bucket_looser) << "h = " << headroom_db;
}

/// A second non-trivial skip bound beside Rayleigh's, of another shape:
/// gain = ½·(−ln u)² (unit mean), so gain < g exactly when u > e^{−√(2g)}.
class SquaredLogFading final : public phy::FadingModel {
 public:
  [[nodiscard]] double gain_from_uniform(double u) const override {
    const double e = -std::log(u);
    return 0.5 * e * e;
  }
  [[nodiscard]] double skip_u(double min_gain) const override {
    return std::exp(-std::sqrt(2.0 * min_gain)) * (1.0 + 1e-12);
  }
};

std::vector<std::unique_ptr<phy::FadingModel>> fading_models() {
  std::vector<std::unique_ptr<phy::FadingModel>> models;
  models.push_back(std::make_unique<phy::RayleighFading>());
  models.push_back(std::make_unique<SquaredLogFading>());
  return models;
}

/// Builds a radio over `positions`, checks its cache against the exhaustive
/// scan, then takes one mobility step (every device moves up to `step_m`
/// and the shadowing decorrelates, bumping its epoch) and checks again.
void expect_cache_and_moved_cache_match_scan(std::vector<geo::Vec2> positions,
                                             std::uint64_t seed, double step_m,
                                             double max_admitted_frac) {
  auto channel = phy::make_paper_channel(seed);
  sim::Simulator sim;
  RadioMedium radio(&sim, channel.get());
  add_all(radio, positions);
  const double all_pairs = 0.5 * static_cast<double>(positions.size() * (positions.size() - 1));
  radio.rebuild();
  const std::size_t admitted = expect_matches_exhaustive_scan(radio, *channel, positions);
  // Not vacuous: a large share of the pairs is sub-cutoff, so the rebuild's
  // reject bound has work to do, and some pairs are admitted.
  EXPECT_GT(admitted, 0U);
  EXPECT_LT(static_cast<double>(admitted), max_admitted_frac * all_pairs);

  util::Rng rng(seed + 1);
  for (std::uint32_t id = 0; id < positions.size(); ++id) {
    positions[id] =
        positions[id] + geo::Vec2{rng.uniform(-step_m, step_m), rng.uniform(-step_m, step_m)};
    radio.move_device(id, positions[id]);
  }
  channel->shadowing().invalidate();
  radio.rebuild();
  EXPECT_GT(expect_matches_exhaustive_scan(radio, *channel, positions), 0U);
}

// The oracle's two random worlds.  They keep the names they had when the
// radio could still select the dense (exhaustive) candidate scan and they
// compared the grid cache with it; the exhaustive scan above is that
// enumeration, kept test-side.
TEST(SpatialEquivalence, CandidateCacheMatchesDenseAtPaperDensity) {
  // N = 1000 at the paper's density: the range disc covers the world, the
  // rows run every v > u, and the bound rejects about half the pairs.
  const core::ScenarioConfig config{.n = 1000, .seed = 9003};
  const std::vector<geo::Vec2> positions = core::deploy(config);
  ASSERT_FALSE(rows_are_gathered(*phy::make_paper_channel(config.seed), positions));
  expect_cache_and_moved_cache_match_scan(positions, config.seed, 5.0, 0.6);
}

TEST(SpatialEquivalence, CandidateCacheMatchesDenseInASparseWorld) {
  // A 5 km square: the range disc does not cover it, so rows are
  // grid-gathered, and the grid follows the mobility step's moves.
  const std::vector<geo::Vec2> positions = scatter(300, 5000.0, 9004);
  ASSERT_TRUE(rows_are_gathered(*phy::make_paper_channel(9004), positions));
  expect_cache_and_moved_cache_match_scan(positions, 9004, 50.0, 0.3);
}

TEST(CandidateCache, MatchesAnExhaustiveScan) {
  // A pair on the reject bound's edge (the oracle's two random worlds are
  // the SpatialEquivalence tests above).  No shadowing, so the bound is the
  // path-loss floor alone.  Device 1 sits just inside the cutoff distance
  // from device 0, and device 2 sizes the world so that a floor bucket's
  // lower edge lies just below device 1: the floor then bounds the pair's
  // loss less than 1e-3 dB below the cutoff loss, and only the reject
  // guard's exact margin admits it.
  auto channel = std::make_unique<phy::Channel>(
      phy::RadioParams{}, phy::make_paper_model(), std::make_unique<phy::NoShadowing>(),
      std::make_unique<phy::RayleighFading>(), util::Rng(44));
  const phy::RadioParams& params = channel->params();
  const double cutoff_loss_db =
      (params.tx_power - (params.detection_threshold - util::Db{kMargin})).value;
  const double cutoff_m = channel->pathloss().distance_for_loss(util::Db{cutoff_loss_db});
  const double pair_m = cutoff_m * (1.0 - 1e-5);
  const double edge_m = cutoff_m * (1.0 - 3e-5);
  const double max_d2 = edge_m * edge_m * 1024.0 / 1000.0;  // bucket 1000 starts at edge_m
  const std::vector<geo::Vec2> positions = {
      {0.0, 0.0}, {pair_m, 0.0}, {0.0, std::sqrt(max_d2 - pair_m * pair_m)}};
  mac::PathLossFloor floor;
  ASSERT_TRUE(floor.build(channel->pathloss(), bounding_box_d2(positions)));
  ASSERT_GT(floor.lower_bound(pair_m * pair_m), cutoff_loss_db - 1e-3);
  sim::Simulator sim;
  RadioMedium radio(&sim, channel.get());
  add_all(radio, positions);
  radio.rebuild();
  EXPECT_EQ(expect_matches_exhaustive_scan(radio, *channel, positions), 2U);
}

TEST(CandidateCache, CachedSkipsAreLooseByAtMostOneBucket) {
  const std::vector<geo::Vec2> pos = scatter(300, 245.0, 31);
  for (std::unique_ptr<phy::FadingModel>& model : fading_models()) {
    const phy::FadingModel& fading = *model;
    auto channel = paper_channel_with(std::move(model), 32);
    sim::Simulator sim;
    RadioMedium radio(&sim, channel.get());
    add_all(radio, pos);
    radio.rebuild();
    const double threshold = channel->params().detection_threshold.value;
    const RadioMedium::CandidateView c = radio.candidates();
    ASSERT_GT(c.rx.size(), 1000U);
    std::size_t loosened = 0;
    std::size_t skipping = 0;
    for (std::size_t k = 0; k < c.rx.size(); ++k) {
      const double h = c.mean_dbm[k] - threshold;
      expect_loose_by_at_most_one_bucket(fading, c.skip[k], h, bucket_width());
      const float exact = SkipTable::exact(fading, h);
      loosened += static_cast<std::size_t>(c.skip[k] != exact);
      skipping += static_cast<std::size_t>(exact <= 1.0F);
    }
    // Not vacuous: most links can skip, and the table loosens some bounds.
    EXPECT_GT(skipping, c.rx.size() / 2);
    EXPECT_GT(loosened, 0U);
  }
}

TEST(CandidateCache, CachedMilliwattsAreThePowOfTheMean) {
  auto channel = phy::make_paper_channel(33);
  sim::Simulator sim;
  RadioMedium radio(&sim, channel.get());
  add_all(radio, scatter(400, 280.0, 34));
  radio.rebuild();
  const RadioMedium::CandidateView c = radio.candidates();
  ASSERT_GT(c.rx.size(), 0U);
  for (std::size_t k = 0; k < c.rx.size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(c.mean_mw[k]),
              std::bit_cast<std::uint64_t>(util::Dbm{c.mean_dbm[k]}.milliwatts()))
        << k;
  }
}

TEST(CandidateCache, SkipTableAtTheEdgesOfItsRange) {
  for (const std::unique_ptr<phy::FadingModel>& model : fading_models()) {
    const phy::FadingModel& fading = *model;
    SkipTable table;
    table.build(fading, kMargin);
    const double width = bucket_width();
    const double cap = SkipTable::kMaxLossDb;
    const float never = SkipTable::exact(fading, cap);
    EXPECT_GT(never, 1.0F);  // above every uniform
    // At the cap, beyond it and at NaN nothing is ever skipped.
    for (const double h : {cap, std::nextafter(cap, 1e9), cap + 1.0, 1e300,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_EQ(table.bound(h), never) << h;
    }
    // Just below the cap the link can skip, and the last bucket does not.
    const double below_cap = std::nextafter(cap, 0.0);
    EXPECT_NE(SkipTable::exact(fading, below_cap), never);
    EXPECT_EQ(table.bound(below_cap), never);
    // At −margin, and below it (rounding can put an admitted h there), the
    // first bucket is loose.
    for (const double h : {-kMargin, std::nextafter(-kMargin, -1e9), -kMargin - 1.0,
                           -kMargin + width, cap - width}) {
      expect_loose_by_at_most_one_bucket(fading, table.bound(h), std::max(h, -kMargin), width);
      EXPECT_GE(table.bound(h), SkipTable::exact(fading, h)) << h;
    }
    util::Rng rng(35);
    for (int i = 0; i < 100000; ++i) {
      const double h = rng.uniform(-kMargin, cap + 1.0);
      expect_loose_by_at_most_one_bucket(fading, table.bound(h), h, width);
    }
    // Bucket upper edges, where a pair's bound and its entry meet.
    for (std::size_t b = 0; b < SkipTable::kBuckets; ++b) {
      const double edge = -kMargin + static_cast<double>(b + 1) * width;
      for (const double h : {std::nextafter(edge, -1e9), edge, std::nextafter(edge, 1e9)}) {
        expect_loose_by_at_most_one_bucket(fading, table.bound(h), h, width);
      }
    }
    // A margin that leaves no headroom below the cap never skips.
    table.build(fading, -cap - 1.0);
    for (const double h : {cap + 1.0, cap + 2.0, 1e300, std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_EQ(table.bound(h), never) << h;
    }
  }
}

TEST(CandidateCache, SlicesAreContiguousWhereAdmissionRejectsBoundSurvivors) {
  // A world sparse enough that the bound rejects most pairs and the grid
  // gathers rows.  Count, with the rebuild's reject test, the pairs that
  // survive the bound yet fail exact admission: the build must close the
  // gaps they leave.
  const std::vector<geo::Vec2> pos = scatter(500, 2500.0, 36);
  auto grid_channel = phy::make_paper_channel(37);
  sim::Simulator sim;
  RadioMedium grid(&sim, grid_channel.get());
  add_all(grid, pos);
  grid.rebuild();
  expect_contiguous_slices(grid, pos.size());
  expect_matches_exhaustive_scan(grid, *grid_channel, pos);

  mac::PathLossFloor floor;
  ASSERT_TRUE(floor.build(grid_channel->pathloss(), bounding_box_d2(pos)));
  const phy::RadioParams& params = grid_channel->params();
  const util::Dbm cutoff = params.detection_threshold - util::Db{kMargin};
  const double reject_above = (params.tx_power - cutoff).value + 1e-6;
  std::size_t survivors = 0;
  std::size_t rejected = 0;
  for (std::uint32_t u = 0; u < pos.size(); ++u) {
    for (std::uint32_t v = u + 1; v < pos.size(); ++v) {
      double shadow_lo = 0.0;
      grid_channel->shadowing().loss_lower_bounds(u, &v, 1, &shadow_lo);
      const double bound = floor.lower_bound(geo::distance_squared(pos[u], pos[v])) + shadow_lo;
      if (bound > reject_above) continue;
      ++survivors;
      rejected += static_cast<std::size_t>(
          grid_channel->mean_received_power(u, pos[u], v, pos[v]) < cutoff);
    }
  }
  EXPECT_GT(rejected, 0U);
  EXPECT_EQ(grid.candidates().rx.size(), 2 * (survivors - rejected));
}

TEST(CandidateCache, RebuildAfterMovesEqualsAFreshBuild) {
  // Two rounds of moving every device and rebuilding, on the grid path
  // over a gathered (sparse) world and at the paper's density: the first
  // round packs the devices (the cache grows past its allocation), the
  // second spreads them (it shrinks inside it).  Each round must equal a
  // medium built fresh at the new positions over the same channel.
  for (const double side : {2000.0, 300.0}) {
    auto channel = phy::make_paper_channel(38);
    sim::Simulator sim;
    RadioMedium moved(&sim, channel.get());
    const std::size_t n = 400;
    add_all(moved, scatter(n, side, 39));
    moved.rebuild();
    std::size_t last = moved.candidates().rx.size();
    for (const double round_side : {side / 3.0, side * 1.5}) {
      const std::vector<geo::Vec2> to = scatter(n, round_side, 40);
      for (std::uint32_t id = 0; id < n; ++id) moved.move_device(id, to[id]);
      moved.rebuild();
      RadioMedium fresh(&sim, channel.get());
      add_all(fresh, to);
      fresh.rebuild();
      expect_same_cache(moved, fresh);
      const std::size_t size = moved.candidates().rx.size();
      if (round_side < side) {
        EXPECT_GT(size, last) << side;
      } else {
        EXPECT_LT(size, last) << side;
      }
      last = size;
    }
  }
}

TEST(CandidateCache, TinyPopulations) {
  auto channel = phy::make_paper_channel(41);
  sim::Simulator sim;
  RadioMedium radio(&sim, channel.get());
  radio.rebuild();
  EXPECT_TRUE(std::ranges::equal(radio.candidates().offsets, std::vector<std::size_t>{0}));
  EXPECT_TRUE(radio.candidates().rx.empty());

  radio.add_device(0, {0.0, 0.0});
  radio.rebuild();
  EXPECT_TRUE(std::ranges::equal(radio.candidates().offsets, std::vector<std::size_t>{0, 0}));
  radio.broadcast(0, {mac::RachCodec::kRach1, 0}, mac::PsType::kSyncPulse, 0);
  sim.run();
  EXPECT_EQ(radio.counters().deliveries, 0U);

  radio.add_device(1, {10.0, 0.0});
  radio.rebuild();
  const RadioMedium::CandidateView near = radio.candidates();
  EXPECT_TRUE(std::ranges::equal(near.offsets, std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(std::ranges::equal(near.rx, std::vector<std::uint32_t>{1, 0}));
  EXPECT_EQ(near.mean_dbm[0], near.mean_dbm[1]);

  radio.move_device(1, {10000.0, 0.0});
  radio.rebuild();
  EXPECT_TRUE(std::ranges::equal(radio.candidates().offsets,
                                 std::vector<std::size_t>{0, 0, 0}));
}

TEST(CandidateCache, NonFiniteMarginIsRejected) {
  auto channel = phy::make_paper_channel(42);
  sim::Simulator sim;
  RadioMedium radio(&sim, channel.get());
  add_all(radio, scatter(50, 100.0, 43));
  radio.rebuild();
  const std::vector<std::uint32_t> before(radio.candidates().rx.begin(),
                                          radio.candidates().rx.end());
  for (const double margin : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(radio.rebuild(margin), std::invalid_argument) << margin;
    // The rejected call touched nothing: the last cache still stands.
    EXPECT_TRUE(std::ranges::equal(radio.candidates().rx, before));
  }
  // A medium with no devices rejects it too.
  RadioMedium empty(&sim, channel.get());
  EXPECT_THROW(empty.rebuild(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
}

}  // namespace
