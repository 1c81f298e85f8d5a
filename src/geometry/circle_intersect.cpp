#include "geometry/circle_intersect.hpp"

#include <cmath>

#include "geometry/tolerance.hpp"

namespace mldcs::geom {

CircleIntersection intersect_circles(const Disk& a, const Disk& b,
                                     double tol) noexcept {
  CircleIntersection out;

  const Vec2 delta = b.center - a.center;
  const double d2 = delta.norm2();
  const double d = std::sqrt(d2);
  const double rsum = a.radius + b.radius;
  const double rdiff = std::fabs(a.radius - b.radius);

  if (d <= tol && rdiff <= tol) {
    out.relation = CircleRelation::kCoincident;
    return out;
  }
  if (d > rsum + tol) {
    out.relation = CircleRelation::kDisjoint;
    return out;
  }
  if (d < rdiff - tol) {
    out.relation = CircleRelation::kContained;
    return out;
  }

  // Foot of the radical axis on the center line:
  //   t = (d^2 + ra^2 - rb^2) / (2 d)   measured from a.center along delta.
  // Height h above the center line: h^2 = ra^2 - t^2.
  const double t = (d2 + a.radius * a.radius - b.radius * b.radius) / (2.0 * d);
  const double h2 = a.radius * a.radius - t * t;

  const Vec2 axis = delta / d;
  const Vec2 foot = a.center + t * axis;

  const bool external_touch = approx_equal(d, rsum, tol);
  const bool internal_touch = approx_equal(d, rdiff, tol);

  if (h2 <= tol * tol || external_touch || internal_touch) {
    out.relation = external_touch ? CircleRelation::kExternallyTangent
                                  : CircleRelation::kInternallyTangent;
    out.count = 1;
    out.points[0] = foot;
    return out;
  }

  const double h = std::sqrt(clamp(h2, 0.0, a.radius * a.radius));
  const Vec2 up = axis.perp();
  out.relation = CircleRelation::kCrossing;
  out.count = 2;
  // +h is counter-clockwise from the a->b axis as seen from a.center.
  out.points[0] = foot + h * up;
  out.points[1] = foot - h * up;
  return out;
}

}  // namespace mldcs::geom
