#pragma once

/// \file spatial_grid.hpp
/// Uniform-grid spatial index over node positions.
///
/// Building the bidirectional disk graph naively is O(N^2) point-pair
/// tests; with deployments up to a few thousand nodes per trial and 200
/// trials per sweep point that dominates the harness.  A uniform grid with
/// cell size = max radius reduces neighbor candidate generation to the 3x3
/// cell neighborhood, which is O(N * density) for the paper's parameters.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/vec2.hpp"
#include "net/node.hpp"

namespace mldcs::net {

/// Immutable spatial hash of a fixed point set.
class SpatialGrid {
 public:
  /// Index `nodes` with square cells of side `cell_size` (> 0).
  SpatialGrid(std::span<const Node> nodes, double cell_size);

  /// Append to `out` the ids of all indexed nodes within Euclidean distance
  /// `range` of `p` (inclusive), excluding `exclude`.
  void query(geom::Vec2 p, double range, NodeId exclude,
             std::vector<NodeId>& out) const;

  /// Call `visit(id)` for each candidate: a superset of the ids within
  /// `range` of `p`, namely every id in the cells overlapping the disk
  /// B(p, range).  Exact distance filtering is the caller's job.  Visits in
  /// place, without materializing the candidates (no allocation).
  template <typename F>
  void for_each_candidate(geom::Vec2 p, double range, F&& visit) const {
    const std::int64_t cx0 = clamped(p.x - range - min_x_, nx_);
    const std::int64_t cx1 = clamped(p.x + range - min_x_, nx_);
    const std::int64_t cy0 = clamped(p.y - range - min_y_, ny_);
    const std::int64_t cy1 = clamped(p.y + range - min_y_, ny_);
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
        const std::size_t c = static_cast<std::size_t>(cy * nx_ + cx);
        for (std::uint32_t k = offsets_[c]; k < offsets_[c + 1]; ++k) {
          visit(ids_[k]);
        }
      }
    }
  }

  [[nodiscard]] double cell_size() const noexcept { return cell_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(nx_) * ny_;
  }

 private:
  [[nodiscard]] std::int64_t cell_of(geom::Vec2 p) const noexcept;
  /// Cell index of the offset `d` from the grid origin along an axis of
  /// `cells` cells, clamped into the grid.
  [[nodiscard]] std::int64_t clamped(double d,
                                     std::int64_t cells) const noexcept {
    return std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::floor(d / cell_)), 0, cells - 1);
  }

  std::span<const Node> nodes_;
  double cell_;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::int64_t nx_ = 1;
  std::int64_t ny_ = 1;
  // CSR layout: ids_ grouped by cell, offsets_ has cell_count()+1 entries.
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> ids_;
};

}  // namespace mldcs::net
