// grid.hpp — uniform spatial grid over the deployment plane.
//
// The radio's candidate-cache construction, the engine's reliable-links
// scan and the ground-truth proximity graph all ask the same question:
// which device pairs could possibly hear each other?  The channel bounds
// the answer by a maximum detectable range (path-loss budget plus the
// shadowing clamp and fading headroom), so a grid with cell size equal to
// that range finds every pair within it by scanning a 3×3 cell block
// instead of all N devices — O(N·k) enumeration instead of O(N²).
//
// Cell membership updates are O(1) (`move` swap-erases within the old
// cell), which is what per-step mobility needs.  Enumeration order within
// a cell is *not* deterministic after moves; callers that need a canonical
// order sort the gathered ids (the radio and proximity-graph builders do).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/point.hpp"

namespace firefly::geo {

class SpatialGrid {
 public:
  SpatialGrid() = default;

  /// Build the grid over `positions` (ids are the vector indices) with the
  /// given cell size.  `cell_size` must be positive and finite; the extent
  /// is the bounding box of the initial positions.  Points later moved
  /// outside the extent are clamped into the border cells, so queries stay
  /// correct (border cells just grow).
  void build(const std::vector<Vec2>& positions, double cell_size);

  /// Incremental membership update after device `id` moved to `to`.
  void move(std::size_t id, Vec2 to);

  [[nodiscard]] bool built() const { return cell_size_ > 0.0; }

  /// Flat index of the cell containing `p` (clamped to the grid extent).
  [[nodiscard]] std::size_t cell_index(Vec2 p) const;

  /// Append to `out` every id whose cell overlaps the axis-aligned square
  /// circumscribing the disc (center, radius): a superset of the ids within
  /// `radius` of `center`.  `out` is neither cleared nor sorted.
  void gather(Vec2 center, double radius, std::vector<std::uint32_t>& out) const;

  /// Heap bytes: the cell lists and the per-id cell index.
  [[nodiscard]] std::size_t capacity_bytes() const;

 private:
  [[nodiscard]] std::size_t col_of(double x) const;
  [[nodiscard]] std::size_t row_of(double y) const;

  double cell_size_ = 0.0;
  double inv_cell_ = 0.0;
  Vec2 origin_{};
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<std::vector<std::uint32_t>> cells_;  // row-major [row * nx_ + col]
  std::vector<std::uint32_t> cell_of_;       // id -> flat cell index
  std::vector<std::uint32_t> slot_in_cell_;  // id -> index inside its cell vector
};

}  // namespace firefly::geo
