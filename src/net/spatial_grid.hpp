#pragma once

/// \file spatial_grid.hpp
/// Uniform-grid cell geometry, the cell entries and link walk both graph
/// types share, and the one-shot spatial index over them.
///
/// Building the bidirectional disk graph naively is O(N^2) point-pair
/// tests; with deployments up to a few thousand nodes per trial and 200
/// trials per sweep point that dominates the harness.  A uniform grid with
/// cell side = max radius reduces neighbor candidate generation to the 3x3
/// cell neighborhood, which is O(N * density) for the paper's parameters.
/// Both graph types bucket nodes on the one `GridGeometry`, as `GridEntry`
/// copies of each node's position and radius beside its id, and filter a
/// cell's entries with the one branch-free walk, `append_links`:
/// `SpatialGrid` holds them in one immutable array grouped by cell
/// (`DiskGraph::build`), `DynamicDiskGraph` in one mutable bucket per cell.

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

/// A node's entry in a grid cell: its position and radius beside its id,
/// so a walk reads one contiguous array per cell instead of chasing
/// `nodes[v]` per candidate.
struct GridEntry {
  double x;
  double y;
  double r;
  NodeId id;

  [[nodiscard]] static GridEntry of(const Node& n) noexcept {
    return {n.pos.x, n.pos.y, n.radius, n.id};
  }
};

/// True if `v` is a neighbor of `u`: linked by the Section 3.1 rule
/// (in_link_range) and not u itself.  0 or 1, for branch-free sums.
[[nodiscard]] inline std::size_t links(const GridEntry& u,
                                       const GridEntry& v) noexcept {
  return static_cast<std::size_t>(in_link_range(u.x, u.y, u.r, v.x, v.y,
                                                v.r)) &
         static_cast<std::size_t>(v.id != u.id);
}

/// Append u's neighbors among `cell` to out[k, ...), in cell order, and
/// return the new k.  Branch-free: every entry's id is written at out[k]
/// and the cursor steps past the linked ones, so `out` needs room for
/// k + cell.size() ids.
inline std::size_t append_links(const GridEntry& u,
                                std::span<const GridEntry> cell,
                                NodeId* out, std::size_t k) noexcept {
  for (const GridEntry& v : cell) {
    out[k] = v.id;
    k += links(u, v);
  }
  return k;
}

/// Most ids sort_distinct_ids orders by rank counting (64 squared compares,
/// a few hundred cycles vectorized); more take std::sort.
inline constexpr std::size_t kRankSortMax = 64;

/// Write the distinct ids in[0, n) to out[0, n), ascending (the ranges must
/// not overlap).  Each id's rank is the number of smaller ones: a
/// branch-free count that vectorizes, where a comparison sort mispredicts
/// about every other compare.  It is quadratic, so long lists fall back to
/// std::sort.
inline void sort_distinct_ids(const NodeId* in, std::size_t n,
                              NodeId* out) noexcept {
  if (n > kRankSortMax) {
    std::copy(in, in + n, out);
    std::sort(out, out + n);
    return;
  }
  for (std::size_t a = 0; a < n; ++a) {
    const NodeId v = in[a];
    std::uint32_t rank = 0;  // 32-bit lanes: four compares per vector
    for (std::size_t b = 0; b < n; ++b) {
      rank += static_cast<std::uint32_t>(in[b] < v);
    }
    out[rank] = v;
  }
}

/// Immutable spatial hash of a fixed point set: one GridEntry per node,
/// grouped by GridGeometry cell in one array, each cell's run in input
/// order.
class SpatialGrid {
 public:
  /// Index `nodes` (positions and radii finite) on the grid fitted to them.
  explicit SpatialGrid(std::span<const Node> nodes);

  /// Call `visit(entries)` with the entries of every cell overlapping the
  /// square of half-side `range` around `p`: a superset of the nodes within
  /// `range` of `p` (a node at `p` included).  Exact filtering is the
  /// caller's job.  Visits in place (no allocation).
  template <typename F>
  void for_each_cell(geom::Vec2 p, double range, F&& visit) const {
    geometry_.for_each_cell(p, range, [&](std::size_t c) {
      visit(std::span<const GridEntry>(entries_.data() + offsets_[c],
                                       entries_.data() + offsets_[c + 1]));
    });
  }

 private:
  GridGeometry geometry_;
  // entries_ grouped by cell; offsets_ has cell_count()+1 entries.
  std::vector<std::uint32_t> offsets_;
  std::vector<GridEntry> entries_;
};

}  // namespace mldcs::net
