#include "geo/deployment.hpp"

#include <cassert>
#include <cmath>

namespace firefly::geo {

std::vector<Vec2> deploy_uniform(std::size_t n, Area area, util::Rng& rng) {
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)});
  }
  return points;
}

std::vector<Vec2> deploy_clustered(std::size_t n, std::size_t clusters, double spread,
                                   Area area, util::Rng& rng) {
  assert(clusters > 0);
  const std::vector<Vec2> parents = deploy_uniform(clusters, area, rng);
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 parent = parents[i % clusters];
    const Vec2 offset{rng.normal(0.0, spread), rng.normal(0.0, spread)};
    points.push_back(area.clamp(parent + offset));
  }
  return points;
}

Area scaled_area_for(std::size_t n, std::size_t reference_n, Area reference_area) {
  assert(reference_n > 0);
  const double scale =
      std::sqrt(static_cast<double>(n) / static_cast<double>(reference_n));
  return Area{reference_area.width * scale, reference_area.height * scale};
}

}  // namespace firefly::geo
