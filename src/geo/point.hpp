// point.hpp — 2-D vectors and the deployment area.
//
// The paper deploys devices on a 100 m × 100 m plane (Table I) with
// coordinates (x_i, y_i).  `Vec2` is a plain value type; `Area` is an
// axis-aligned rectangle used for deployment and clamping.
#pragma once

#include <cmath>
#include <compare>

namespace firefly::geo {

struct Vec2 {
  double x{0.0};
  double y{0.0};

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend constexpr Vec2 operator*(double k, Vec2 v) { return {k * v.x, k * v.y}; }
  constexpr Vec2& operator+=(Vec2 o) { x += o.x; y += o.y; return *this; }
  friend constexpr bool operator==(Vec2 a, Vec2 b) = default;

  [[nodiscard]] double norm() const { return std::hypot(x, y); }
  [[nodiscard]] constexpr double norm_squared() const { return x * x + y * y; }
};

[[nodiscard]] inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }
[[nodiscard]] constexpr double distance_squared(Vec2 a, Vec2 b) {
  return (a - b).norm_squared();
}

/// Axis-aligned rectangular deployment area [0,width] x [0,height].
struct Area {
  double width{100.0};
  double height{100.0};

  /// Clamp a point to the area (used by mobility models at the border).
  [[nodiscard]] Vec2 clamp(Vec2 p) const {
    return {std::fmin(std::fmax(p.x, 0.0), width), std::fmin(std::fmax(p.y, 0.0), height)};
  }
};

/// The paper's Table I area.
inline constexpr Area kPaperArea{100.0, 100.0};

}  // namespace firefly::geo
