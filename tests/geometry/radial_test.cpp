// Tests for the polar-around-o view: the rho_i(theta) functions whose upper
// envelope *is* the skyline.

#include "geometry/radial.hpp"

#include <gtest/gtest.h>

#include "core/validate.hpp"
#include "geometry/angle.hpp"
#include "sim/rng.hpp"

namespace mldcs::geom {
namespace {

TEST(RadialTest, CenteredDiskHasConstantRadial) {
  const RadialDisk rd({{0, 0}, 2.5}, {0, 0});
  for (int k = 0; k < 32; ++k) {
    EXPECT_NEAR(rd.radius_at(kTwoPi * k / 32.0), 2.5, 1e-12);
  }
}

TEST(RadialTest, OffsetDiskKnownValues) {
  // Disk B((1,0), 2) seen from the origin: toward the center rho = 1 + 2,
  // away from it rho = 2 - 1, perpendicular rho = sqrt(4 - 1).
  const RadialDisk rd({{1, 0}, 2.0}, {0, 0});
  EXPECT_NEAR(rd.radius_at(0.0), 3.0, 1e-12);
  EXPECT_NEAR(rd.radius_at(kPi), 1.0, 1e-12);
  EXPECT_NEAR(rd.radius_at(kPi / 2), std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(rd.radius_at(3 * kPi / 2), std::sqrt(3.0), 1e-12);
}

TEST(RadialTest, CenterDistanceAndAngle) {
  const RadialDisk rd({{3, 4}, 6.0}, {0, 0});
  EXPECT_NEAR(rd.center_distance(), 5.0, 1e-12);
  EXPECT_NEAR(rd.center_angle(), std::atan2(4.0, 3.0), 1e-12);
}

TEST(RadialTest, BoundaryPointIsOnCircle) {
  const Disk d{{1.0, -0.5}, 2.0};
  const RadialDisk rd(d, {0.3, 0.2});
  for (int k = 0; k < 64; ++k) {
    const Vec2 p = rd.boundary_point_at(kTwoPi * k / 64.0);
    EXPECT_NEAR(distance(p, d.center), d.radius, 1e-9);
  }
}

TEST(RadialTest, BoundaryPointIsForwardAlongRay) {
  // Lemma 1/Corollary 2: the crossing is in the +theta direction (rho >= 0).
  const RadialDisk rd({{0.9, 0.1}, 1.0}, {0, 0});
  for (int k = 0; k < 64; ++k) {
    EXPECT_GE(rd.radius_at(kTwoPi * k / 64.0), 0.0);
  }
}

TEST(RadialTest, BoundaryOriginGivesZeroSomewhere) {
  // If o is exactly on the boundary, rho(theta) = 0 in the opposite-of-
  // center direction.
  const RadialDisk rd({{1.0, 0.0}, 1.0}, {0, 0});
  EXPECT_NEAR(rd.radius_at(kPi), 0.0, 1e-9);
  EXPECT_NEAR(rd.radius_at(0.0), 2.0, 1e-12);
}

TEST(RadialTest, RadialFunctionIsPeriodic) {
  const RadialDisk rd({{0.4, 0.6}, 1.5}, {0, 0});
  for (int k = 0; k < 16; ++k) {
    const double theta = 0.37 * k;
    EXPECT_NEAR(rd.radius_at(theta), rd.radius_at(theta + kTwoPi), 1e-9);
  }
}

TEST(RadialTest, ArgmaxPrefersOuterDisk) {
  const std::vector<Disk> disks{{{0, 0}, 1.0}, {{0, 0}, 2.0}};
  EXPECT_EQ(radial_argmax(disks, {0, 0}, 0.0), 1u);
  EXPECT_EQ(radial_argmax(disks, {0, 0}, 2.5), 1u);
}

TEST(RadialTest, ArgmaxTieBreakPrefersLargerRadiusThenSmallerIndex) {
  // Identical disks: smallest index wins.
  const std::vector<Disk> same{{{0, 0}, 1.0}, {{0, 0}, 1.0}, {{0, 0}, 1.0}};
  EXPECT_EQ(radial_argmax(same, {0, 0}, 1.0), 0u);

  // Internal tangency at angle 0: both disks pass through (2, 0); the
  // larger radius must win there.
  const std::vector<Disk> tangent{{{1.0, 0.0}, 1.0}, {{0.0, 0.0}, 2.0}};
  EXPECT_EQ(radial_argmax(tangent, {0, 0}, 0.0), 1u);
}

TEST(RadialTest, ArgmaxEmptySpanReturnsSentinel) {
  const std::vector<Disk> none;
  EXPECT_EQ(radial_argmax(none, {0, 0}, 0.0), SIZE_MAX);
}

TEST(RadialTest, EnvelopeIsMaxOfMembers) {
  sim::Xoshiro256 rng(7);
  std::vector<Disk> disks;
  for (int i = 0; i < 6; ++i) {
    disks.push_back(Disk{{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)},
                         rng.uniform(1.0, 2.0)});
  }
  for (int k = 0; k < 128; ++k) {
    const double theta = kTwoPi * k / 128.0;
    double expected = 0.0;
    for (const Disk& d : disks) {
      expected = std::max(expected, radial_distance(d, {0, 0}, theta));
    }
    EXPECT_NEAR(radial_envelope(disks, {0, 0}, theta), expected, 1e-12);
  }
}

/// The radial view needs o inside every disk; that premise is stated once,
/// by core::describe_local_set_violation ("" when it holds).
TEST(RadialTest, IsLocalDiskSet) {
  const std::vector<Disk> good{{{0, 0}, 1.0}, {{0.5, 0}, 1.0}};
  const std::vector<Disk> bad{{{0, 0}, 1.0}, {{5.0, 0}, 1.0}};
  EXPECT_EQ(core::describe_local_set_violation(good, {0, 0}), "");
  EXPECT_NE(core::describe_local_set_violation(bad, {0, 0}), "");
  EXPECT_EQ(core::describe_local_set_violation({}, {0, 0}), "");  // vacuous
}

/// Property: for random local disks, the radial crossing matches the
/// ray-circle intersection computed independently.
TEST(RadialTest, RadialMatchesRayCircleAlgebra) {
  sim::Xoshiro256 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const double r = rng.uniform(0.5, 2.0);
    const double d = rng.uniform(0.0, r);  // origin inside
    const double phi = rng.uniform(0.0, kTwoPi);
    const Disk disk{d * unit_at(phi), r};
    const double theta = rng.uniform(0.0, kTwoPi);
    const double rho = radial_distance(disk, {0, 0}, theta);
    // The point at distance rho along theta must be on the circle.
    EXPECT_NEAR(distance(rho * unit_at(theta), disk.center), r, 1e-9);
  }
}

}  // namespace
}  // namespace mldcs::geom
