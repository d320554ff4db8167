// objective.hpp — objective functions for the firefly optimiser.
//
// Algorithm 3 of the paper "defines objective function f(x)" and evaluates
// firefly light intensity from it.  In the D2D protocol the objective is
// PS strength toward the proximity target; here we ship the sphere
// benchmark objective used by the FA tests and the complexity bench.
#pragma once

#include <functional>
#include <span>

namespace firefly::fa {

/// Maximised by the optimiser (brightness == objective value).
using Objective = std::function<double(std::span<const double>)>;

/// -(Σ x_i²): maximum 0 at the origin.
[[nodiscard]] Objective sphere();

}  // namespace firefly::fa
