// Tests for the exact skyline perimeter (length of the union boundary).

#include <gtest/gtest.h>

#include <cmath>

#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/angle.hpp"
#include "geometry/radial.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

using geom::Disk;
using geom::kPi;
using geom::kTwoPi;

/// Numeric reference: dense polyline length along the skyline curve.
double polyline_perimeter(const Skyline& sky,
                          std::span<const Disk> disks,
                          std::size_t samples_per_arc = 4000) {
  double len = 0.0;
  for (const Arc& a : sky.arcs()) {
    const geom::RadialDisk rd(disks[a.disk], sky.origin());
    geom::Vec2 prev = rd.boundary_point_at(a.start);
    for (std::size_t s = 1; s <= samples_per_arc; ++s) {
      const double theta =
          a.start + a.span() * static_cast<double>(s) /
                        static_cast<double>(samples_per_arc);
      const geom::Vec2 p = rd.boundary_point_at(theta);
      len += geom::distance(prev, p);
      prev = p;
    }
  }
  return len;
}

TEST(PerimeterTest, SingleCenteredDisk) {
  const std::vector<Disk> one{{{0, 0}, 2.0}};
  SkylineWorkspace ws;
  const auto sky = compute_skyline(one, {0, 0}, ws);
  EXPECT_NEAR(sky.perimeter(one), 2 * kTwoPi, 1e-9);
}

TEST(PerimeterTest, SingleOffsetDisk) {
  const std::vector<Disk> one{{{0.4, -0.3}, 1.5}};
  SkylineWorkspace ws;
  const auto sky = compute_skyline(one, {0, 0}, ws);
  EXPECT_NEAR(sky.perimeter(one), kTwoPi * 1.5, 1e-9);
}

TEST(PerimeterTest, TwoCrossingUnitDisksClassicLens) {
  // Unit disks at distance 1: each circle loses a 2*pi/3 lens arc, so the
  // union perimeter is 2 * (2*pi - 2*pi/3) = 8*pi/3.
  const std::vector<Disk> two{{{0.5, 0}, 1.0}, {{-0.5, 0}, 1.0}};
  SkylineWorkspace ws;
  const auto sky = compute_skyline(two, {0, 0}, ws);
  EXPECT_NEAR(sky.perimeter(two), 8.0 * kPi / 3.0, 1e-9);
}

TEST(PerimeterTest, DominatedDiskDoesNotContribute) {
  const std::vector<Disk> pair{{{0, 0}, 3.0}, {{0.5, 0}, 1.0}};
  SkylineWorkspace ws;
  const auto sky = compute_skyline(pair, {0, 0}, ws);
  EXPECT_NEAR(sky.perimeter(pair), kTwoPi * 3.0, 1e-9);
}

TEST(PerimeterTest, MatchesPolylineReferenceOnRandomSets) {
  sim::Xoshiro256 rng(808);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 10; ++rep) {
    const Scenario sc = random_local_set(rng, 10, true);
    const auto sky = compute_skyline(sc.disks, sc.origin, ws);
    const double exact = sky.perimeter(sc.disks);
    const double numeric = polyline_perimeter(sky, sc.disks);
    EXPECT_NEAR(exact, numeric, exact * 1e-4) << "rep " << rep;
  }
}

TEST(PerimeterTest, AtLeastLargestDiskAtMostSumOfDisks) {
  // The union boundary is at least the hull disk's circumference scale and
  // at most the total circumference of all contributing circles.
  sim::Xoshiro256 rng(809);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 20; ++rep) {
    const Scenario sc = random_local_set(rng, 8, true);
    const auto sky = compute_skyline(sc.disks, sc.origin, ws);
    const double perim = sky.perimeter(sc.disks);
    double rmax = 0.0;
    double total = 0.0;
    for (const Disk& d : sc.disks) {
      rmax = std::max(rmax, d.radius);
      total += kTwoPi * d.radius;
    }
    EXPECT_GE(perim, kTwoPi * rmax - 1e-9);  // union contains the largest disk
    EXPECT_LE(perim, total + 1e-9);
  }
}

TEST(PerimeterTest, IsoperimetricConsistencyWithArea) {
  // For any planar region, P^2 >= 4*pi*A (isoperimetric inequality) — a
  // cheap cross-check tying the two exact integrals together.
  sim::Xoshiro256 rng(810);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 20; ++rep) {
    const Scenario sc = random_local_set(rng, 9, true);
    const auto sky = compute_skyline(sc.disks, sc.origin, ws);
    const double perim = sky.perimeter(sc.disks);
    const double area = sky.enclosed_area(sc.disks);
    EXPECT_GE(perim * perim, 4.0 * kPi * area - 1e-6);
  }
}

}  // namespace
}  // namespace mldcs::core
