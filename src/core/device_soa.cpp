#include "core/device_soa.hpp"

#include <algorithm>

namespace firefly::core {

void DeviceHot::build(std::size_t n) {
  // Carve widest-first so inter-array padding never exceeds one element.
  // Per device: 5×8 (slots) + 8 (event) + 2×8 (drift) + 4 + 2×2 + 3×1 ≈ 75 B.
  arena_.reset(80 * n + 64);
  next_fire_slot = arena_.carve<std::int64_t>(n);
  last_fire_slot = arena_.carve<std::int64_t>(n);
  refractory_until_slot = arena_.carve<std::int64_t>(n);
  desync_last_heard_slot = arena_.carve<std::int64_t>(n);
  desync_prev_slot = arena_.carve<std::int64_t>(n);
  fire_event = arena_.carve<sim::EventId>(n);
  drift_ppm = arena_.carve<double>(n);
  drift_residual = arena_.carve<double>(n);
  desync_residual = arena_.carve<std::int32_t>(n);
  fragment = arena_.carve<std::uint16_t>(n);
  fragment_size = arena_.carve<std::uint16_t>(n);
  down = arena_.carve<bool>(n);
  is_head = arena_.carve<bool>(n);
  desync_adjusted = arena_.carve<bool>(n);
  neighbors.resize(n);

  std::fill_n(last_fire_slot, n, -1);
  std::fill_n(refractory_until_slot, n, -1);
  std::fill_n(desync_last_heard_slot, n, -1);
  std::fill_n(desync_prev_slot, n, -1);
  std::fill_n(desync_residual, n, -1);
  std::fill_n(fragment_size, n, 1);
  for (std::size_t i = 0; i < n; ++i) fragment[i] = static_cast<std::uint16_t>(i);
}

}  // namespace firefly::core
