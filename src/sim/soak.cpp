#include "sim/soak.hpp"

#include <algorithm>

namespace firefly::sim {

SoakRecorder::SoakRecorder(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

void SoakRecorder::push(const SoakWindow& window) {
  if (consumer_) {
    consumer_(window);
    return;
  }
  if (count_ < capacity_) {
    ++count_;
  } else {
    ++dropped_;
  }
}

}  // namespace firefly::sim
