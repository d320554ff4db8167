// time.hpp — integer simulated time.
//
// The LTE-A slot the paper uses is exactly 1 ms; we represent simulated time
// as int64 microseconds so slot boundaries, propagation offsets and timer
// periods are exact.  No floating point ever enters the event queue, which
// keeps event ordering (and therefore whole-simulation determinism) exact.
#pragma once

#include <compare>
#include <cstdint>

namespace firefly::sim {

/// A point or duration on the simulated clock, in microseconds.
struct SimTime {
  std::int64_t us{0};

  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t microseconds) : us(microseconds) {}

  static constexpr SimTime microseconds(std::int64_t v) { return SimTime{v}; }
  static constexpr SimTime milliseconds(std::int64_t v) { return SimTime{v * 1000}; }
  static constexpr SimTime seconds(std::int64_t v) { return SimTime{v * 1'000'000}; }
  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() { return SimTime{INT64_MAX}; }

  [[nodiscard]] constexpr double as_seconds() const { return static_cast<double>(us) * 1e-6; }
  [[nodiscard]] constexpr double as_milliseconds() const { return static_cast<double>(us) * 1e-3; }

  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.us + b.us}; }
  friend constexpr auto operator<=>(SimTime a, SimTime b) = default;
};

/// The LTE-A slot length from Table I.
inline constexpr SimTime kLteSlot = SimTime::milliseconds(1);

}  // namespace firefly::sim
