// mobility.hpp — random-waypoint movement.
//
// `RandomWaypoint` is the classic ad-hoc mobility model, used by the
// extension examples and the engines' mobility option to study discovery
// under movement.  The paper's eq. (13) firefly location update lives in
// `fa::FireflyOptimizer` (src/fa/firefly.hpp), which Algorithm 3 runs.
#pragma once

#include "geo/point.hpp"
#include "util/rng.hpp"

namespace firefly::geo {

/// Random-waypoint mobility: pick a waypoint uniformly in the area, move
/// toward it at `speed` (m/s), pause `pause_s` seconds, repeat.
class RandomWaypoint {
 public:
  RandomWaypoint(Vec2 start, Area area, double speed_mps, double pause_s, util::Rng* rng);

  /// Advance the model by dt seconds and return the new position.
  Vec2 advance(double dt_s);

 private:
  void pick_waypoint();

  Vec2 position_;
  Vec2 waypoint_;
  Area area_;
  double speed_;
  double pause_;
  double pause_left_ = 0.0;
  util::Rng* rng_;
};

}  // namespace firefly::geo
