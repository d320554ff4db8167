// units.hpp — decibel / milliwatt power arithmetic used throughout the PHY.
//
// The paper works in dBm end-to-end (transmit power 23 dBm, detection
// threshold -95 dBm, path loss and shadowing in dB).  These helpers keep the
// conversions in one audited place.  Strong types `Dbm` and `Db` prevent the
// classic bug of adding two absolute powers as if they were gains.
#pragma once

#include <cmath>
#include <compare>
#include <string>

namespace firefly::util {

/// A relative power ratio in decibels (a gain or a loss).
struct Db {
  double value{0.0};

  constexpr Db() = default;
  constexpr explicit Db(double v) : value(v) {}

  friend constexpr Db operator+(Db a, Db b) { return Db{a.value + b.value}; }
  friend constexpr auto operator<=>(Db a, Db b) = default;

  /// Linear power ratio: 10^(dB/10).
  [[nodiscard]] double ratio() const { return std::pow(10.0, value / 10.0); }
};

/// An absolute power level referenced to 1 mW, in dBm.
struct Dbm {
  double value{0.0};

  constexpr Dbm() = default;
  constexpr explicit Dbm(double v) : value(v) {}

  // Absolute power plus/minus a gain stays absolute.
  friend constexpr Dbm operator+(Dbm p, Db g) { return Dbm{p.value + g.value}; }
  friend constexpr Dbm operator-(Dbm p, Db g) { return Dbm{p.value - g.value}; }
  // The difference of two absolute powers is a ratio.
  friend constexpr Db operator-(Dbm a, Dbm b) { return Db{a.value - b.value}; }
  friend constexpr auto operator<=>(Dbm a, Dbm b) = default;

  /// Power in milliwatts: 10^(dBm/10).
  [[nodiscard]] double milliwatts() const { return std::pow(10.0, value / 10.0); }
};

/// dBm from a power in milliwatts (paper eq. 8: p = 10·log10(p/p_ref)).
[[nodiscard]] Dbm dbm_from_milliwatts(double mw);

/// Human-readable rendering, e.g. "-95.0 dBm".
[[nodiscard]] std::string to_string(Dbm p);

namespace literals {
constexpr Dbm operator""_dBm(long double v) { return Dbm{static_cast<double>(v)}; }
}  // namespace literals

}  // namespace firefly::util
