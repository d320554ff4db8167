// deployment.hpp — node placement strategies.
//
// The paper's evaluation deploys 50 devices uniformly in 100 m × 100 m and
// then scales node count for the figures.  We provide:
//   * uniform i.i.d. placement (the paper's set-up),
//   * clustered (Matern-like) placement for the hotspot/stadium examples.
// Density-preserving scaling (`scaled_area_for`) grows the area with n so
// that sweeps over n keep the paper's 50-per-hectare density, matching how
// "different scales" are compared in Figs. 3-4.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/point.hpp"
#include "util/rng.hpp"

namespace firefly::geo {

/// n points i.i.d. uniform over the area.
[[nodiscard]] std::vector<Vec2> deploy_uniform(std::size_t n, Area area, util::Rng& rng);

/// `clusters` parent points; each parent gets ~n/clusters daughters placed
/// normally (stddev `spread`) around it, clamped to the area.
[[nodiscard]] std::vector<Vec2> deploy_clustered(std::size_t n, std::size_t clusters,
                                                 double spread, Area area, util::Rng& rng);

/// Area scaled so n devices keep the reference density of
/// `reference_n` devices in `reference_area` (Table I: 50 per 100 m×100 m).
[[nodiscard]] Area scaled_area_for(std::size_t n, std::size_t reference_n = 50,
                                   Area reference_area = kPaperArea);

}  // namespace firefly::geo
