#include "net/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mldcs::net {

SpatialGrid::SpatialGrid(std::span<const Node> nodes, double cell_size)
    : nodes_(nodes), cell_(cell_size > 0.0 ? cell_size : 1.0) {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = min_x;
  double max_x = -min_x;
  double max_y = -min_x;
  for (const Node& n : nodes_) {
    min_x = std::min(min_x, n.pos.x);
    min_y = std::min(min_y, n.pos.y);
    max_x = std::max(max_x, n.pos.x);
    max_y = std::max(max_y, n.pos.y);
  }
  if (nodes_.empty()) {
    min_x = min_y = 0.0;
    max_x = max_y = 0.0;
  }
  min_x_ = min_x;
  min_y_ = min_y;
  nx_ = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor((max_x - min_x) / cell_)) + 1);
  ny_ = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor((max_y - min_y) / cell_)) + 1);

  // Counting sort of node ids into cells (CSR).
  const std::size_t cells = cell_count();
  offsets_.assign(cells + 1, 0);
  for (const Node& n : nodes_) {
    ++offsets_[static_cast<std::size_t>(cell_of(n.pos)) + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) offsets_[c + 1] += offsets_[c];
  ids_.resize(nodes_.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Node& n : nodes_) {
    ids_[cursor[static_cast<std::size_t>(cell_of(n.pos))]++] = n.id;
  }
}

std::int64_t SpatialGrid::cell_of(geom::Vec2 p) const noexcept {
  return clamped(p.y - min_y_, ny_) * nx_ + clamped(p.x - min_x_, nx_);
}

void SpatialGrid::query(geom::Vec2 p, double range, NodeId exclude,
                        std::vector<NodeId>& out) const {
  const double r2 = range * range;
  for_each_candidate(p, range, [&](NodeId id) {
    if (id != exclude && geom::distance2(nodes_[id].pos, p) <= r2) {
      out.push_back(id);
    }
  });
}

}  // namespace mldcs::net
