#pragma once

/// \file spatial_grid.hpp
/// Uniform-grid cell geometry, and the one-shot spatial index over it.
///
/// Building the bidirectional disk graph naively is O(N^2) point-pair
/// tests; with deployments up to a few thousand nodes per trial and 200
/// trials per sweep point that dominates the harness.  A uniform grid with
/// cell side = max radius reduces neighbor candidate generation to the 3x3
/// cell neighborhood, which is O(N * density) for the paper's parameters.
/// Both graph types bucket nodes on the one `GridGeometry`: `SpatialGrid`
/// (immutable CSR, `DiskGraph::build`) and `DynamicDiskGraph` (mutable).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/vec2.hpp"
#include "net/node.hpp"

namespace mldcs::net {

/// Square cells over the bounding box of a deployment.  Positions outside
/// the box (later motion) clamp into the border cells, so every position
/// has a cell and a range walk still visits every cell it overlaps.
class GridGeometry {
 public:
  /// A single cell of side 1 at the origin (no nodes).
  GridGeometry() = default;

  /// Fit the bounding box of `nodes`, with cells of side max radius
  /// (floored at 1e-6, so zero radii still give a valid grid), doubled
  /// while that would make more than max(4n, 1024) cells.  Positions and
  /// radii must be finite.
  explicit GridGeometry(std::span<const Node> nodes);

  [[nodiscard]] double cell_size() const noexcept { return cell_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  }

  /// Index of the cell holding `p` (clamped into the grid).
  [[nodiscard]] std::size_t cell_of(geom::Vec2 p) const noexcept {
    return static_cast<std::size_t>(clamped(p.y - min_y_, ny_) * nx_ +
                                    clamped(p.x - min_x_, nx_));
  }

  /// Call `visit(cell)` for every cell overlapping the square of half-side
  /// `range` around `p` (which holds the disk B(p, range)), row by row.
  template <typename F>
  void for_each_cell(geom::Vec2 p, double range, F&& visit) const {
    const std::int64_t cx0 = clamped(p.x - range - min_x_, nx_);
    const std::int64_t cx1 = clamped(p.x + range - min_x_, nx_);
    const std::int64_t cy0 = clamped(p.y - range - min_y_, ny_);
    const std::int64_t cy1 = clamped(p.y + range - min_y_, ny_);
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
        visit(static_cast<std::size_t>(cy * nx_ + cx));
      }
    }
  }

 private:
  /// Cell index of the offset `d` from the grid origin along an axis of
  /// `cells` cells, clamped into the grid.
  [[nodiscard]] std::int64_t clamped(double d,
                                     std::int64_t cells) const noexcept {
    return std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::floor(d / cell_)), 0, cells - 1);
  }

  double cell_ = 1.0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::int64_t nx_ = 1;
  std::int64_t ny_ = 1;
};

/// Immutable spatial hash of a fixed point set: node ids bucketed by
/// GridGeometry cell in one CSR array.
class SpatialGrid {
 public:
  /// Index `nodes` (positions and radii finite) on the grid fitted to them.
  explicit SpatialGrid(std::span<const Node> nodes);

  /// Call `visit(id)` for each candidate: a superset of the ids within
  /// `range` of `p`, namely every id in the cells overlapping the disk
  /// B(p, range).  Exact distance filtering is the caller's job.  Visits in
  /// place, without materializing the candidates (no allocation).
  template <typename F>
  void for_each_candidate(geom::Vec2 p, double range, F&& visit) const {
    geometry_.for_each_cell(p, range, [&](std::size_t c) {
      for (std::uint32_t k = offsets_[c]; k < offsets_[c + 1]; ++k) {
        visit(ids_[k]);
      }
    });
  }

 private:
  GridGeometry geometry_;
  // CSR layout: ids_ grouped by cell, offsets_ has cell_count()+1 entries.
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> ids_;
};

}  // namespace mldcs::net
