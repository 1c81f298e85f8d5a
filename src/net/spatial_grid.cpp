#include "net/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mldcs::net {

GridGeometry::GridGeometry(std::span<const Node> nodes) {
  double max_r = 0.0;
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = min_x;
  double max_x = -min_x;
  double max_y = -min_x;
  for (const Node& n : nodes) {
    max_r = std::max(max_r, n.radius);
    min_x = std::min(min_x, n.pos.x);
    min_y = std::min(min_y, n.pos.y);
    max_x = std::max(max_x, n.pos.x);
    max_y = std::max(max_y, n.pos.y);
  }
  if (nodes.empty()) {
    min_x = min_y = 0.0;
    max_x = max_y = 0.0;
  }
  // Tiny or zero radii over a wide extent would ask for far more cells
  // than nodes (and overflow nx_ * ny_), so the side doubles until the
  // count is within max(4n, 1024).  A coarser grid only adds candidates
  // that the caller's exact filter drops.
  const double max_cells =
      std::max(4.0 * static_cast<double>(nodes.size()), 1024.0);
  const double width = max_x - min_x;
  const double height = max_y - min_y;
  const auto cells_along = [this](double extent) {
    return std::floor(extent / cell_) + 1.0;
  };
  cell_ = std::max(max_r, 1e-6);
  while (cells_along(width) * cells_along(height) > max_cells) cell_ *= 2.0;
  min_x_ = min_x;
  min_y_ = min_y;
  nx_ = static_cast<std::int64_t>(cells_along(width));
  ny_ = static_cast<std::int64_t>(cells_along(height));
}

SpatialGrid::SpatialGrid(std::span<const Node> nodes) : geometry_(nodes) {
  // Counting sort of node ids into cells (CSR).
  const std::size_t cells = geometry_.cell_count();
  offsets_.assign(cells + 1, 0);
  for (const Node& n : nodes) ++offsets_[geometry_.cell_of(n.pos) + 1];
  for (std::size_t c = 0; c < cells; ++c) offsets_[c + 1] += offsets_[c];
  ids_.resize(nodes.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Node& n : nodes) ids_[cursor[geometry_.cell_of(n.pos)]++] = n.id;
}

}  // namespace mldcs::net
