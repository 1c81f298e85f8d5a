#pragma once

/// \file circle_intersect.hpp
/// Circle-circle intersection, the geometric kernel of the Merge step.
///
/// In the paper's Merge (Section 3.4) two aligned arcs can meet in 0, 1, or 2
/// points (Cases 1-3); those points are exactly the intersection points of
/// the two underlying circles that fall inside the shared angular span.

#include <array>
#include <optional>

#include "geometry/disk.hpp"
#include "geometry/vec2.hpp"

namespace mldcs::geom {

/// Classification of the relative position of two circles.
enum class CircleRelation {
  kDisjoint,            ///< separated: no common point, neither contains the other
  kExternallyTangent,   ///< touch at one point from outside
  kCrossing,            ///< two proper intersection points
  kInternallyTangent,   ///< touch at one point, one inside the other
  kContained,           ///< one strictly inside the other, no common boundary point
  kCoincident,          ///< same circle (within tolerance)
};

/// Result of intersecting two circle boundaries.
struct CircleIntersection {
  CircleRelation relation = CircleRelation::kDisjoint;
  /// 0, 1, or 2 boundary intersection points.  For kCoincident the boundary
  /// intersection is a whole circle; `count` is 0 and callers must special-
  /// case on `relation`.
  int count = 0;
  std::array<Vec2, 2> points{};
};

/// Intersect the boundaries of two circles.
///
/// For kCrossing the two points are ordered so that points[0] is counter-
/// clockwise from points[1] as seen from the center of `a` (deterministic
/// order for reproducible skylines).  Tolerance `tol` decides tangency vs.
/// crossing.
[[nodiscard]] CircleIntersection intersect_circles(const Disk& a, const Disk& b,
                                                   double tol = kTol) noexcept;

}  // namespace mldcs::geom
