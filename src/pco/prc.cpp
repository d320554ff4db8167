#include "pco/prc.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace firefly::pco {

double PrcParams::alpha() const { return std::exp(dissipation_a * epsilon); }

double PrcParams::beta() const {
  const double numerator = std::exp(dissipation_a * epsilon) - 1.0;
  const double denominator = std::exp(dissipation_a) - 1.0;
  assert(denominator != 0.0);
  return numerator / denominator;
}

bool PrcParams::valid_for_convergence() const {
  return dissipation_a > 0.0 && epsilon > 0.0;  // implies alpha() > 1, beta() > 0
}

double apply_prc(double theta, const PrcParams& params) {
  assert(theta >= 0.0 && theta <= 1.0);
  return std::min(params.alpha() * theta + params.beta(), 1.0);
}

}  // namespace firefly::pco
