#include "geo/mobility.hpp"

#include <cassert>
#include <cmath>

namespace firefly::geo {

RandomWaypoint::RandomWaypoint(Vec2 start, Area area, double speed_mps, double pause_s,
                               util::Rng* rng)
    : position_(start), area_(area), speed_(speed_mps), pause_(pause_s), rng_(rng) {
  assert(rng_ != nullptr);
  assert(speed_ > 0.0);
  pick_waypoint();
}

void RandomWaypoint::pick_waypoint() {
  waypoint_ = {rng_->uniform(0.0, area_.width), rng_->uniform(0.0, area_.height)};
}

Vec2 RandomWaypoint::advance(double dt_s) {
  double remaining = dt_s;
  while (remaining > 0.0) {
    if (pause_left_ > 0.0) {
      const double wait = std::fmin(pause_left_, remaining);
      pause_left_ -= wait;
      remaining -= wait;
      continue;
    }
    const Vec2 to_target = waypoint_ - position_;
    const double dist = to_target.norm();
    const double reach = speed_ * remaining;
    if (reach >= dist) {
      // Arrive, spend travel time, start pausing, then pick the next point.
      position_ = waypoint_;
      remaining -= (speed_ > 0.0 ? dist / speed_ : 0.0);
      pause_left_ = pause_;
      pick_waypoint();
    } else {
      position_ += (reach / dist) * to_target;
      remaining = 0.0;
    }
  }
  return position_;
}

}  // namespace firefly::geo
