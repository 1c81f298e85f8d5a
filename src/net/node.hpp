#pragma once

/// \file node.hpp
/// A wireless node: position + transmission radius (paper Section 3.1).

#include <algorithm>
#include <cstdint>
#include <ostream>

#include "geometry/disk.hpp"
#include "geometry/vec2.hpp"

namespace mldcs::net {

/// Node identifier; index into DiskGraph::nodes().
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Bidirectional-link rule (Section 3.1) on raw coordinates: nodes at
/// (ux, uy) and (vx, vy) with radii ur and vr are neighbors iff
/// ||u - v||^2 <= min(ur, vr)^2.  The one expression behind
/// `Node::linked_to` and the grid walk both graph types build their lists
/// with (`append_links`, spatial_grid.hpp), so every pair is decided bit
/// for bit alike.  Symmetric: swapping u and v only negates the exact
/// differences.
[[nodiscard]] constexpr bool in_link_range(double ux, double uy, double ur,
                                           double vx, double vy,
                                           double vr) noexcept {
  const double dx = ux - vx;
  const double dy = uy - vy;
  const double rmin = std::min(ur, vr);
  return dx * dx + dy * dy <= rmin * rmin;
}

/// A wireless node with an omnidirectional antenna of range `radius`.
struct Node {
  NodeId id = kNoNode;
  geom::Vec2 pos;
  double radius = 0.0;

  /// The node's coverage disk B(pos, radius).
  [[nodiscard]] geom::Disk disk() const noexcept { return {pos, radius}; }

  /// Bidirectional-link rule (Section 3.1): u and v are neighbors iff
  /// ||u - v|| <= min(r_u, r_v).
  [[nodiscard]] bool linked_to(const Node& other) const noexcept {
    return in_link_range(pos.x, pos.y, radius, other.pos.x, other.pos.y,
                         other.radius);
  }

  /// Unidirectional coverage: this node's transmissions physically reach
  /// `other` (other is inside this node's disk), regardless of whether
  /// `other` could answer.  The gap between this and linked_to() is exactly
  /// the Figure 5.6 pathology.
  [[nodiscard]] bool covers(const Node& other) const noexcept {
    return geom::distance2(pos, other.pos) <= radius * radius;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Node& n) {
  return os << "node" << n.id << '@' << n.pos << " r=" << n.radius;
}

}  // namespace mldcs::net
