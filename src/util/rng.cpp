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

double Rng::rayleigh(double sigma) {
  const double u = unit_open();
  return sigma * std::sqrt(-2.0 * std::log(u));
}

double Rng::gamma(double shape, double scale) {
  assert(shape > 0.0 && scale > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and correct with u^(1/shape) (Marsaglia–Tsang trick).
    const double u = unit_open();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = unit_open();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v * scale;
  }
}

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
