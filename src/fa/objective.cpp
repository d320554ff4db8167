#include "fa/objective.hpp"

namespace firefly::fa {

Objective sphere() {
  return [](std::span<const double> x) {
    double sum = 0.0;
    for (const double v : x) sum += v * v;
    return -sum;
  };
}

}  // namespace firefly::fa
