#include "geo/grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/capacity.hpp"

namespace firefly::geo {

void SpatialGrid::build(const std::vector<Vec2>& positions, double cell_size) {
  assert(cell_size > 0.0 && std::isfinite(cell_size));
  cell_size_ = cell_size;
  inv_cell_ = 1.0 / cell_size;

  Vec2 lo{0.0, 0.0};
  Vec2 hi{0.0, 0.0};
  if (!positions.empty()) {
    lo = hi = positions.front();
    for (const Vec2 p : positions) {
      lo.x = std::fmin(lo.x, p.x);
      lo.y = std::fmin(lo.y, p.y);
      hi.x = std::fmax(hi.x, p.x);
      hi.y = std::fmax(hi.y, p.y);
    }
  }
  origin_ = lo;
  nx_ = static_cast<std::size_t>(std::floor((hi.x - lo.x) * inv_cell_)) + 1;
  ny_ = static_cast<std::size_t>(std::floor((hi.y - lo.y) * inv_cell_)) + 1;

  cells_.assign(nx_ * ny_, {});
  cell_of_.resize(positions.size());
  slot_in_cell_.resize(positions.size());
  for (std::size_t id = 0; id < positions.size(); ++id) {
    const std::size_t cell = cell_index(positions[id]);
    cell_of_[id] = static_cast<std::uint32_t>(cell);
    slot_in_cell_[id] = static_cast<std::uint32_t>(cells_[cell].size());
    cells_[cell].push_back(static_cast<std::uint32_t>(id));
  }
}

std::size_t SpatialGrid::col_of(double x) const {
  const double c = std::floor((x - origin_.x) * inv_cell_);
  if (c <= 0.0) return 0;
  const auto col = static_cast<std::size_t>(c);
  return col >= nx_ ? nx_ - 1 : col;
}

std::size_t SpatialGrid::row_of(double y) const {
  const double r = std::floor((y - origin_.y) * inv_cell_);
  if (r <= 0.0) return 0;
  const auto row = static_cast<std::size_t>(r);
  return row >= ny_ ? ny_ - 1 : row;
}

std::size_t SpatialGrid::cell_index(Vec2 p) const {
  return row_of(p.y) * nx_ + col_of(p.x);
}

void SpatialGrid::move(std::size_t id, Vec2 to) {
  assert(id < cell_of_.size());
  const std::size_t from_cell = cell_of_[id];
  const std::size_t to_cell = cell_index(to);
  if (to_cell == from_cell) return;

  // Swap-erase from the old cell, patching the swapped member's slot.
  std::vector<std::uint32_t>& old_members = cells_[from_cell];
  const std::uint32_t slot = slot_in_cell_[id];
  const std::uint32_t last = old_members.back();
  old_members[slot] = last;
  slot_in_cell_[last] = slot;
  old_members.pop_back();

  cell_of_[id] = static_cast<std::uint32_t>(to_cell);
  slot_in_cell_[id] = static_cast<std::uint32_t>(cells_[to_cell].size());
  cells_[to_cell].push_back(static_cast<std::uint32_t>(id));
}

void SpatialGrid::gather(Vec2 center, double radius, std::vector<std::uint32_t>& out) const {
  assert(built());
  const std::size_t c0 = col_of(center.x - radius);
  const std::size_t c1 = col_of(center.x + radius);
  const std::size_t r0 = row_of(center.y - radius);
  const std::size_t r1 = row_of(center.y + radius);
  for (std::size_t row = r0; row <= r1; ++row) {
    for (std::size_t col = c0; col <= c1; ++col) {
      const std::vector<std::uint32_t>& members = cells_[row * nx_ + col];
      out.insert(out.end(), members.begin(), members.end());
    }
  }
}

std::size_t SpatialGrid::capacity_bytes() const {
  std::size_t bytes = util::capacity_bytes(cells_) + util::capacity_bytes(cell_of_) +
                      util::capacity_bytes(slot_in_cell_);
  for (const std::vector<std::uint32_t>& cell : cells_) bytes += util::capacity_bytes(cell);
  return bytes;
}

}  // namespace firefly::geo
