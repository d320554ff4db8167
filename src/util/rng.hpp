// rng.hpp — deterministic, stream-splittable random number generation.
//
// Every stochastic element of the simulator (deployment, shadowing, fading,
// oscillator jitter, Monte-Carlo trials) draws from an `Rng` derived from a
// single master seed through named substreams.  Two runs with the same master
// seed are bit-identical regardless of evaluation order across threads,
// because each component owns an independent stream keyed by
// (master_seed, stream_name, trial_index).
#pragma once

#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace firefly::util {

/// SplitMix64: the canonical 64-bit seeding/stream-derivation mixer.
/// Passes BigCrush when used as a generator; we use it both as a mixer for
/// stream derivation and as the engine behind `Rng`.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — fast, high-quality 64-bit PRNG (Blackman & Vigna).
/// Seeded from SplitMix64 per its authors' recommendation.
class Xoshiro256ss {
 public:
  explicit Xoshiro256ss(std::uint64_t seed);

  std::uint64_t next() { return step(s_[0], s_[1], s_[2], s_[3]); }

  /// Calls emit(i, bits) for i in [0, n) with the n outputs `next()` would
  /// return, the state held in locals for the whole block rather than
  /// loaded and stored through memory per draw.
  template <typename Emit>
  void generate(std::size_t n, Emit&& emit) {
    std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
    for (std::size_t i = 0; i < n; ++i) emit(i, step(s0, s1, s2, s3));
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
  }
  /// `generate` over two engines in one loop: emit(i, bits, other_bits)
  /// with the i-th outputs of this engine and of `other` (a distinct
  /// engine), both states held in locals.
  template <typename Emit>
  void generate_with(Xoshiro256ss& other, std::size_t n, Emit&& emit) {
    assert(&other != this);
    std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
    std::uint64_t t0 = other.s_[0], t1 = other.s_[1], t2 = other.s_[2], t3 = other.s_[3];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bits = step(s0, s1, s2, s3);
      emit(i, bits, step(t0, t1, t2, t3));
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
    other.s_[0] = t0;
    other.s_[1] = t1;
    other.s_[2] = t2;
    other.s_[3] = t3;
  }

 private:
  static std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1, std::uint64_t& s2,
                            std::uint64_t& s3) {
    const std::uint64_t result = std::rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = std::rotl(s3, 45);
    return result;
  }

  std::uint64_t s_[4];
};

/// High-level deterministic RNG with the distributions the simulator needs.
/// All transforms are implemented here (not via <random>) so results are
/// identical across standard libraries and compilers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).  Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal via Box–Muller (deterministic, pair-cached).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Uniform in (0, 1), offset away from zero: the single generator step
  /// underlying `exponential` (and the Rayleigh power-gain draw).  Exposed
  /// so the radio's delivery fast path can test the raw uniform against a
  /// precomputed bound and only pay the log for survivors.
  double unit_open() { return unit_open_from(engine_.next()); }
  /// Fill `out[0..n)` with the exact sequence n successive `unit_open()`
  /// calls would produce.  The radio's batched delivery path uses this to
  /// draw one fade per candidate in a single tight loop; keeping it
  /// bit-equal to the scalar draw is what pins cross-path determinism.
  void fill_unit_open(double* out, std::size_t n) {
    engine_.generate(n, [out](std::size_t i, std::uint64_t bits) { out[i] = unit_open_from(bits); });
  }
  /// `fill_unit_open`'s n uniforms, filtered in the same pass: draw i sits
  /// at position p = pos[i] (p = i when `pos` is null) and is kept when it
  /// is below bound[p].  Kept draws are compacted in draw order, the uniform
  /// to `kept` and its position to `kept_pos`; returns their count.  Both
  /// outputs need room for n entries (slots past the count are scratch), and
  /// the stream ends where `fill_unit_open` leaves it.
  std::size_t fill_unit_open_below(const float* bound, const std::uint32_t* pos, std::size_t n,
                                   double* kept, std::uint32_t* kept_pos) {
    const auto identity = [](std::size_t i) { return static_cast<std::uint32_t>(i); };
    const auto gated = [pos](std::size_t i) { return pos[i]; };
    return pos == nullptr ? keep_unit_open_below(bound, n, kept, kept_pos, identity)
                          : keep_unit_open_below(bound, n, kept, kept_pos, gated);
  }
  /// The same pass with an i.i.d. drop process stepped in the same loop:
  /// draw i is also lost when the i-th of n `drops.bernoulli(drop_p)` calls
  /// fires.  Sets `fired` to the number that fired.  Both streams end where
  /// those separate calls leave them; `drops` is another Rng than this one.
  std::size_t fill_unit_open_below(const float* bound, const std::uint32_t* pos, std::size_t n,
                                   double* kept, std::uint32_t* kept_pos, Rng& drops,
                                   double drop_p, std::size_t& fired) {
    const auto identity = [](std::size_t i) { return static_cast<std::uint32_t>(i); };
    const auto gated = [pos](std::size_t i) { return pos[i]; };
    return pos == nullptr
               ? keep_unit_open_below(bound, n, kept, kept_pos, identity, drops, drop_p, fired)
               : keep_unit_open_below(bound, n, kept, kept_pos, gated, drops, drop_p, fired);
  }
  /// Exponential with the given rate λ (> 0).  Inline: it is the Rayleigh
  /// power-gain draw, which delivery evaluation performs once per
  /// candidate receiver — millions of times per large trial.
  double exponential(double rate) {
    assert(rate > 0.0);
    return -std::log(unit_open()) / rate;
  }
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);
  /// Fill `out[0..n)` with the exact results (1 = success) of n successive
  /// `bernoulli(p)` calls, in one block.
  void fill_bernoulli(std::uint8_t* out, std::size_t n, double p) {
    engine_.generate(n, [out, p](std::size_t i, std::uint64_t bits) {
      out[i] = static_cast<std::uint8_t>(uniform_from(bits) < p);
    });
  }

  /// Fisher–Yates shuffle.
  template <typename RandomIt>
  void shuffle(RandomIt first, RandomIt last) {
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const auto j = uniform_index(i);
      using std::swap;
      swap(first[i - 1], first[j]);
    }
  }

 private:
  /// The [0, 1) and (0, 1) maps of one 64-bit output (53 mantissa bits).
  static double uniform_from(std::uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }
  static double unit_open_from(std::uint64_t bits) {
    return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
  }
  // Branch-free compaction: every draw is written, kept ones advance.
  template <typename Position>
  std::size_t keep_unit_open_below(const float* bound, std::size_t n, double* kept,
                                   std::uint32_t* kept_pos, Position position) {
    std::size_t count = 0;
    engine_.generate(n, [&](std::size_t i, std::uint64_t bits) {
      const double u = unit_open_from(bits);
      const std::uint32_t p = position(i);
      kept[count] = u;
      kept_pos[count] = p;
      count += static_cast<std::size_t>(u < static_cast<double>(bound[p]));
    });
    return count;
  }
  template <typename Position>
  std::size_t keep_unit_open_below(const float* bound, std::size_t n, double* kept,
                                   std::uint32_t* kept_pos, Position position, Rng& drops,
                                   double drop_p, std::size_t& fired) {
    std::size_t count = 0;
    std::size_t lost = 0;
    engine_.generate_with(drops.engine_, n,
                          [&](std::size_t i, std::uint64_t bits, std::uint64_t drop_bits) {
                            const double u = unit_open_from(bits);
                            const std::uint32_t p = position(i);
                            const auto dropped =
                                static_cast<std::size_t>(uniform_from(drop_bits) < drop_p);
                            lost += dropped;
                            kept[count] = u;
                            kept_pos[count] = p;
                            count += static_cast<std::size_t>(u < static_cast<double>(bound[p])) &
                                     (dropped ^ 1U);
                          });
    fired = lost;
    return count;
  }

  Xoshiro256ss engine_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Derive a child seed from (master, stream_name, index).
/// FNV-1a over the name, mixed with SplitMix64; stable across platforms.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master, std::string_view stream,
                                        std::uint64_t index = 0);

/// Factory for named substreams off a master seed.
class RngFactory {
 public:
  explicit RngFactory(std::uint64_t master_seed) : master_(master_seed) {}

  [[nodiscard]] Rng make(std::string_view stream, std::uint64_t index = 0) const {
    return Rng{derive_seed(master_, stream, index)};
  }
  [[nodiscard]] std::uint64_t master_seed() const { return master_; }

 private:
  std::uint64_t master_;
};

}  // namespace firefly::util
