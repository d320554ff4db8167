// Differential tests for the radio's capture rule (mac::CaptureRule): the
// linear-domain verdict with its guard band must agree with the dB
// reference on every reception it decides, on seeded random receiver
// buckets and on inputs built to sit on the decision boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "mac/radio.hpp"
#include "phy/fading.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace firefly;
using mac::CaptureRule;
using Verdict = mac::CaptureRule::Verdict;

const double kNoiseMw = util::Dbm{-104.0}.milliwatts();

/// One audible reception as the radio stages it: its power in dBm and in
/// milliwatts, and its resource key.
struct Entry {
  double dbm;
  double mw;
  std::uint32_t key;
};

/// The dB reference's interference at entry `i`: `pow` per other entry on
/// the same resource, summed in entry order.
double reference_interference(const std::vector<Entry>& bucket, std::size_t i) {
  double sum = 0.0;
  for (std::size_t j = 0; j < bucket.size(); ++j) {
    if (j != i && bucket[j].key == bucket[i].key) sum += util::Dbm{bucket[j].dbm}.milliwatts();
  }
  return sum;
}

/// Decides every contended entry of `bucket` both ways.  Returns the number
/// of guard-band verdicts; fails the test on any disagreement.
std::size_t check_bucket(const CaptureRule& rule, const std::vector<Entry>& bucket) {
  std::vector<double> group_mw(256, 0.0);
  std::vector<std::size_t> group_count(256, 0);
  for (const Entry& e : bucket) {
    group_mw[e.key] += e.mw;
    ++group_count[e.key];
  }
  std::size_t guards = 0;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    const Entry& e = bucket[i];
    if (group_count[e.key] < 2) continue;
    const double interference = reference_interference(bucket, i);
    const bool reference = rule.exact(util::Dbm{e.dbm}, interference);
    const Verdict verdict = rule.linear(e.mw, group_mw[e.key]);
    if (verdict == Verdict::kGuard) {
      ++guards;
    } else {
      EXPECT_EQ(verdict == Verdict::kDecoded, reference)
          << "entry " << i << " of " << bucket.size() << " at " << e.dbm << " dBm";
    }
    const bool decided = rule.decodes(e.mw, [&] { return util::Dbm{e.dbm}; }, group_mw[e.key],
                                      [&] { return reference_interference(bucket, i); });
    EXPECT_EQ(decided, reference) << "entry " << i;
  }
  return guards;
}

/// A reception the way the cached sweep produces it: a mean, a Rayleigh
/// fade, and the milliwatts as cached mean times floored gain.
Entry faded_entry(util::Rng& rng, double mean_dbm, std::uint32_t key) {
  const double gain = -std::log(rng.unit_open());
  const util::Dbm power = util::Dbm{mean_dbm} - phy::FadingModel::loss_from_gain(gain);
  const double mw =
      util::Dbm{mean_dbm}.milliwatts() * std::max(gain, phy::FadingModel::kGainFloor);
  return Entry{power.value, mw, key};
}

TEST(CaptureRule, LinearVerdictMatchesDbReferenceOnRandomBuckets) {
  util::Rng rng(20150525);
  for (const double margin_db : {3.0, 6.0}) {
    const CaptureRule rule(margin_db, kNoiseMw);
    for (int trial = 0; trial < 400; ++trial) {
      const auto k = static_cast<std::size_t>(2 + rng.uniform_index(299));  // 2..300
      const auto keys = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
      std::vector<Entry> bucket;
      bucket.reserve(k);
      for (std::size_t i = 0; i < k; ++i) {
        const double mean_dbm = rng.uniform(-105.0, -40.0);
        const auto key = static_cast<std::uint32_t>(rng.uniform_index(keys));
        if (rng.unit_open() < 0.1) {
          // An attenuated reception: its milliwatts come from pow.
          const util::Dbm power{mean_dbm - rng.uniform(0.0, 20.0)};
          bucket.push_back(Entry{power.value, power.milliwatts(), key});
        } else {
          bucket.push_back(faded_entry(rng, mean_dbm, key));
        }
      }
      check_bucket(rule, bucket);
    }
  }
}

TEST(CaptureRule, PowersWithinUlpsOfTheMarginTakeTheExactPath) {
  // P within ±4 ulp of m·(I + N): the linear compare cannot tell these
  // apart, so every one must fall into the guard band and be decided by the
  // dB reference.
  util::Rng rng(7);
  std::size_t guards = 0;
  for (const double margin_db : {3.0, 6.0}) {
    const CaptureRule rule(margin_db, kNoiseMw);
    const double margin_lin = std::pow(10.0, margin_db / 10.0);
    for (int trial = 0; trial < 50; ++trial) {
      const auto k = static_cast<std::size_t>(2 + rng.uniform_index(40));
      std::vector<Entry> interferers;
      double interference = 0.0;
      for (std::size_t i = 0; i + 1 < k; ++i) {
        interferers.push_back(faded_entry(rng, rng.uniform(-100.0, -70.0), 0));
        interference += interferers.back().mw;
      }
      const double target = margin_lin * (interference + kNoiseMw);
      for (int ulps = -4; ulps <= 4; ++ulps) {
        double p_mw = target;
        for (int s = 0; s < std::abs(ulps); ++s) {
          p_mw = std::nextafter(p_mw, ulps < 0 ? 0.0 : std::numeric_limits<double>::infinity());
        }
        std::vector<Entry> bucket = interferers;
        const auto at = static_cast<std::ptrdiff_t>(rng.uniform_index(bucket.size() + 1));
        bucket.insert(bucket.begin() + at,
                      Entry{util::dbm_from_milliwatts(p_mw).value, p_mw, 0});
        double group_mw = 0.0;
        for (const Entry& e : bucket) group_mw += e.mw;
        EXPECT_EQ(rule.linear(p_mw, group_mw), Verdict::kGuard) << ulps << " ulp";
        guards += check_bucket(rule, bucket);
      }
    }
  }
  EXPECT_GT(guards, 0U) << "the exact fallback path was never taken";
}

TEST(CaptureRule, DominantEntryCancellationStaysExact) {
  // One entry dominates its group, so S − P cancels almost completely;
  // choosing the noise floor as P/m − I puts that entry on the decision
  // boundary, where the cancelled sum is least trustworthy.
  util::Rng rng(11);
  std::size_t guards = 0;
  for (const double margin_db : {3.0, 6.0}) {
    const double margin_lin = std::pow(10.0, margin_db / 10.0);
    for (int trial = 0; trial < 50; ++trial) {
      const auto k = static_cast<std::size_t>(2 + rng.uniform_index(300));
      const double p_mw = util::Dbm{rng.uniform(-40.0, -20.0)}.milliwatts();
      std::vector<Entry> bucket;
      double interference = 0.0;
      for (std::size_t i = 0; i + 1 < k; ++i) {
        bucket.push_back(faded_entry(rng, rng.uniform(-140.0, -120.0), 0));
        interference += util::Dbm{bucket.back().dbm}.milliwatts();
      }
      const auto at = static_cast<std::ptrdiff_t>(rng.uniform_index(bucket.size() + 1));
      bucket.insert(bucket.begin() + at, Entry{util::dbm_from_milliwatts(p_mw).value, p_mw, 0});
      double noise_mw = p_mw / margin_lin - interference;
      for (int ulps = -4; ulps <= 4; ++ulps) {
        const CaptureRule rule(margin_db, noise_mw);
        guards += check_bucket(rule, bucket);
        noise_mw = std::nextafter(noise_mw, std::numeric_limits<double>::infinity());
      }
    }
  }
  EXPECT_GT(guards, 0U) << "the exact fallback path was never taken";
}

TEST(CaptureRule, DecisiveVerdictsNeverCallTheReference) {
  const CaptureRule rule(6.0, kNoiseMw);
  const double strong = util::Dbm{-50.0}.milliwatts();
  const double weak = util::Dbm{-90.0}.milliwatts();
  int calls = 0;
  const auto count_call = [&] {
    ++calls;
    return 0.0;
  };
  const auto power_call = [&] {
    ++calls;
    return util::Dbm{0.0};
  };
  EXPECT_TRUE(rule.decodes(strong, power_call, strong + weak, count_call));
  EXPECT_FALSE(rule.decodes(weak, power_call, strong + weak, count_call));
  EXPECT_EQ(calls, 0);
}

}  // namespace
