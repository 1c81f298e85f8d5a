// Direct property checks of the paper's Chapter 3/4 lemmas, tested as
// geometry facts independent of the skyline implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/angle.hpp"
#include "geometry/area.hpp"
#include "geometry/bbox.hpp"
#include "geometry/circle_intersect.hpp"
#include "geometry/radial.hpp"
#include "geometry/triangle.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

using geom::Disk;
using geom::kPi;
using geom::kTwoPi;
using geom::Vec2;

// ---------------------------------------------------------------------------
// Lemma 1: for any boundary point a of a disk containing o, segment oa is
// inside the disk.

TEST(Lemma1Test, SegmentFromRelayToBoundaryStaysInside) {
  sim::Xoshiro256 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const double r = rng.uniform(0.5, 2.0);
    const double d = rng.uniform(0.0, r);
    const Disk disk{d * geom::unit_at(rng.uniform(0.0, kTwoPi)), r};
    const Vec2 a = disk.boundary_point(rng.uniform(0.0, kTwoPi));
    // Sample points along the segment o-a.
    for (int k = 0; k <= 20; ++k) {
      const Vec2 p = geom::lerp({0, 0}, a, k / 20.0);
      EXPECT_TRUE(disk.contains(p, 1e-9));
    }
  }
}

// ---------------------------------------------------------------------------
// Corollary 2: any ray from o crosses the skyline exactly once — i.e. the
// radial representation is a total single-valued function.  Checked as: the
// forward ray hits the boundary of the union exactly once, by counting
// sign changes of "inside the union" along the ray.

TEST(Corollary2Test, RayCrossesUnionBoundaryExactlyOnce) {
  sim::Xoshiro256 rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    // Random local disk set.
    std::vector<Disk> disks;
    const std::size_t n = 2 + rng.uniform_int(8);
    for (std::size_t i = 0; i < n; ++i) {
      const double r = rng.uniform(0.5, 2.0);
      const double d = rng.uniform(0.0, r);
      disks.push_back(Disk{d * geom::unit_at(rng.uniform(0.0, kTwoPi)), r});
    }
    const double theta = rng.uniform(0.0, kTwoPi);
    // March along the ray well past every disk; count inside->outside
    // transitions.
    double reach = 0.0;
    for (const Disk& dd : disks) {
      reach = std::max(reach, dd.center.norm() + dd.radius);
    }
    int transitions = 0;
    bool inside = true;  // o is inside every disk
    const int steps = 4000;
    for (int k = 1; k <= steps; ++k) {
      const Vec2 p = (reach * 1.1 * k / steps) * geom::unit_at(theta);
      const bool now = geom::covered_by_union(disks, p, 0.0);
      if (inside && !now) ++transitions;
      EXPECT_FALSE(!inside && now)
          << "re-entered the union: star-shapedness violated";
      inside = now;
    }
    EXPECT_EQ(transitions, 1);
  }
}

// ---------------------------------------------------------------------------
// Lemma 5: the chord inequality ||b - c|| > 2 min(r1, r2) in the paper's
// obtuse configuration.  We realize the configuration directly: two circles
// through a common point a, diameters ac' and ab', points c and b on the
// specified arcs with angle(cab) obtuse.

TEST(Lemma5Test, ChordInequalityInTangentExtreme) {
  // The extreme case the paper treats first: circles tangent at a with
  // c', a, b' collinear.  B1 is centered (-r1, 0), B2 at (r2, 0), tangent
  // at a = origin; the diameter endpoints are c' = (-2r1, 0), b' = (2r2, 0).
  // c is the second boundary crossing of a ray from a with direction in
  // (pi/2, pi) (between the vertical and ac'); b likewise with direction in
  // (0, pi/2) (between ab' and the vertical) — these are exactly the rays
  // inside the angle c'ab' the paper's rotation argument preserves.  With
  // angle(cab) strictly obtuse, ||b - c|| > 2 min(r1, r2).
  sim::Xoshiro256 rng(33);
  int tested = 0;
  for (int trial = 0; trial < 400 && tested < 200; ++trial) {
    const double r1 = rng.uniform(0.5, 2.0);
    const double r2 = rng.uniform(0.5, 2.0);
    const Disk b1{{-r1, 0}, r1};
    const Disk b2{{r2, 0}, r2};
    const double margin = 0.02;
    const double dir_c = rng.uniform(kPi / 2 + 2 * margin, kPi - margin);
    const double dir_b = rng.uniform(margin, dir_c - kPi / 2 - margin);
    // Second crossing of the ray from a: t = 2 dir . (center - a).
    const auto chord_end = [](const Disk& disk, double phi) {
      const Vec2 dir = geom::unit_at(phi);
      return (2.0 * dir.dot(disk.center)) * dir;
    };
    const Vec2 c = chord_end(b1, dir_c);
    const Vec2 b = chord_end(b2, dir_b);
    ASSERT_TRUE(b1.on_boundary(c, 1e-9));
    ASSERT_TRUE(b2.on_boundary(b, 1e-9));
    const double angle_cab = dir_c - dir_b;
    ASSERT_GT(angle_cab, kPi / 2);  // obtuse by construction
    ++tested;
    EXPECT_GT(geom::distance(b, c), 2.0 * std::min(r1, r2) - 1e-9)
        << "r1=" << r1 << " r2=" << r2 << " angle=" << angle_cab;
  }
  EXPECT_EQ(tested, 200);
}

// ---------------------------------------------------------------------------
// Lemma 6: the three circles (edge as chord, circumradius radius, center
// outside the triangle) of an acute triangle meet at the orthocenter.

TEST(Lemma6Test, CirclesPassThroughOrthocenter) {
  sim::Xoshiro256 rng(44);
  int tested = 0;
  while (tested < 100) {
    const geom::Triangle t{{rng.uniform(-2, 2), rng.uniform(-2, 2)},
                           {rng.uniform(-2, 2), rng.uniform(-2, 2)},
                           {rng.uniform(-2, 2), rng.uniform(-2, 2)}};
    if (t.classify() != geom::TriangleKind::kAcute) continue;
    ++tested;
    const double r = *t.circumradius();
    const auto circles = geom::lemma6_circles(t, r);
    ASSERT_TRUE(circles.has_value());
    const Vec2 h = *t.orthocenter();
    for (const Disk& c : *circles) {
      EXPECT_NEAR(geom::distance(c.center, h), r, 1e-7)
          << "orthocenter not on circle";
    }
  }
}

// ---------------------------------------------------------------------------
// Corollary 7: with radius strictly larger than the circumradius, the three
// circles have empty common intersection (for acute or right triangles).

TEST(Corollary7Test, EnlargedCirclesHaveNoCommonPoint) {
  sim::Xoshiro256 rng(55);
  int tested = 0;
  while (tested < 100) {
    const geom::Triangle t{{rng.uniform(-2, 2), rng.uniform(-2, 2)},
                           {rng.uniform(-2, 2), rng.uniform(-2, 2)},
                           {rng.uniform(-2, 2), rng.uniform(-2, 2)}};
    const auto kind = t.classify();
    if (kind != geom::TriangleKind::kAcute && kind != geom::TriangleKind::kRight)
      continue;
    if (t.area() < 0.05) continue;  // keep configurations well-conditioned
    ++tested;
    const double r = *t.circumradius() * rng.uniform(1.05, 2.0);
    const auto circles = geom::lemma6_circles(t, r);
    ASSERT_TRUE(circles.has_value());
    // Dense sampling of the plane region around the triangle: no point may
    // lie in all three disks.
    const geom::BBox box = geom::bbox_of(std::span<const Disk>(
        circles->data(), circles->size()));
    const int grid = 60;
    for (int iy = 0; iy <= grid; ++iy) {
      for (int ix = 0; ix <= grid; ++ix) {
        const Vec2 p{box.min.x + box.width() * ix / grid,
                     box.min.y + box.height() * iy / grid};
        const bool in_all = (*circles)[0].contains(p, -1e-9) &&
                            (*circles)[1].contains(p, -1e-9) &&
                            (*circles)[2].contains(p, -1e-9);
        EXPECT_FALSE(in_all) << "common point at " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lemma 8 seen through Merge instrumentation: total merge work across the
// divide-and-conquer is O(n log n) — spans per level stay linear.

TEST(Lemma8Test, MergeWorkIsLinearithmic) {
  sim::Xoshiro256 rng(66);
  // Compare total spans at n and 4n: n log n growth gives ~4.7x, far below
  // the ~16x of quadratic growth.  The input is the narrow band
  // (narrow_band_set), where the sector-bound prefilter can drop almost
  // nothing, so the spans measure merges of n disks, not of the few a
  // U[1,2] set leaves.
  SkylineWorkspace ws;
  const auto work = [&](std::size_t n) {
    const Scenario sc = narrow_band_set(rng, n);
    MergeStats stats;
    (void)compute_skyline(sc.disks, sc.origin, ws, &stats);
    EXPECT_GE(stats.survivors, n * 9 / 10) << "n = " << n;
    return stats.spans;
  };
  const auto w256 = static_cast<double>(work(256));
  const auto w1024 = static_cast<double>(work(1024));
  // Quadratic would give ~16x; n log n gives ~4.7x.  Allow generous slack.
  EXPECT_LT(w1024 / w256, 8.0);
}

}  // namespace
}  // namespace mldcs::core
