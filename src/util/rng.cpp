#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace firefly::util {

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559;
}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

double Rng::uniform() { return uniform_from(engine_.next()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded integer method, with rejection to
  // remove modulo bias entirely.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = engine_.next();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 shifted away from zero to keep log() finite.
  const double u1 = unit_open();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = radius * std::sin(kTwoPi * u2);
  have_cached_normal_ = true;
  return radius * std::cos(kTwoPi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

std::uint64_t Rng::poisson(double lambda) {
  assert(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 64.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-lambda);
    double product = uniform();
    std::uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large means.
  const double x = normal(lambda, std::sqrt(lambda));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

std::uint64_t derive_seed(std::uint64_t master, std::string_view stream, std::uint64_t index) {
  // FNV-1a over the stream name ...
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  // ... mixed with master seed and index through SplitMix64 rounds.
  SplitMix64 mixer(master ^ h);
  std::uint64_t s = mixer.next();
  SplitMix64 mixer2(s ^ (index * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL));
  return mixer2.next();
}

}  // namespace firefly::util
