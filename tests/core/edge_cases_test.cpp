// Adversarial / numerical edge cases for the skyline algorithms: the relay
// on disk boundaries, near-coincident radii, micro and macro scales, and
// defensive paths.

#include <gtest/gtest.h>

#include <cmath>

#include "core/skyline_dc.hpp"
#include "core/skyline_reference.hpp"
#include "core/validate.hpp"
#include "geometry/angle.hpp"
#include "geometry/radial.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

using geom::Disk;
using geom::kTwoPi;
using geom::Vec2;

void expect_agreement(const std::vector<Disk>& disks, Vec2 o,
                      SkylineWorkspace& ws, const std::string& label) {
  const auto dc = compute_skyline(disks, o, ws);
  EXPECT_EQ(check_skyline_minimality(dc, disks), "") << label;
  EXPECT_LT(max_radial_error(dc, disks, 2048), 1e-7) << label;
}

/// Degeneracies must be resolved on the same side by all three algorithms:
/// identical skyline sets from the D&C, the incremental reference, and the
/// brute-force envelope (the last inside check_skyline_minimality).
void expect_triple_agreement(const std::vector<Disk>& disks, Vec2 o,
                             SkylineWorkspace& ws, const std::string& label) {
  const auto dc = compute_skyline(disks, o, ws);
  const auto inc = compute_skyline_incremental(disks, o);
  EXPECT_EQ(check_skyline_minimality(dc, disks), "") << label;
  EXPECT_EQ(dc.skyline_set(), inc.skyline_set()) << label;
}

TEST(EdgeCasesTest, RelayOnEveryDiskBoundary) {
  // k disks all passing exactly through o: rho_i has a zero.  The union
  // boundary touches o, the most degenerate star-shaped configuration.
  SkylineWorkspace ws;
  for (const std::size_t k : {2u, 3u, 5u, 8u}) {
    std::vector<Disk> disks;
    for (std::size_t i = 0; i < k; ++i) {
      const double a = kTwoPi * static_cast<double>(i) / static_cast<double>(k);
      disks.push_back(Disk{geom::unit_at(a), 1.0});  // ||o - c|| == r
    }
    expect_agreement(disks, {0, 0}, ws,
                     "boundary-relay k=" + std::to_string(k));
  }
}

TEST(EdgeCasesTest, NearCoincidentRadii) {
  // Radii differing by barely more than the tolerance: the tie-break must
  // stay deterministic and the algorithms must agree.
  sim::Xoshiro256 rng(31);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<Disk> disks;
    const std::size_t n = 3 + rng.uniform_int(6);
    for (std::size_t i = 0; i < n; ++i) {
      const double r = 1.0 + 1e-7 * static_cast<double>(rng.uniform_int(5));
      const double d = rng.uniform(0.0, 0.9);
      disks.push_back(Disk{d * geom::unit_at(rng.uniform(0.0, kTwoPi)), r});
    }
    expect_agreement(disks, {0, 0}, ws,
                     "near-coincident rep " + std::to_string(rep));
  }
}

TEST(EdgeCasesTest, MicroScaleConfiguration) {
  // Everything scaled down by 1e-3: absolute tolerances must not swallow
  // the geometry at the paper's unit scale divided by 1000.
  const double s = 1e-3;
  const std::vector<Disk> disks{{{0.5 * s, 0.0}, 1.0 * s},
                                {{-0.5 * s, 0.0}, 1.0 * s},
                                {{0.0, 0.6 * s}, 0.9 * s}};
  SkylineWorkspace ws;
  expect_agreement(disks, {0, 0}, ws, "micro scale");
}

TEST(EdgeCasesTest, MacroScaleConfiguration) {
  // Scaled up by 1e3 with a far-away origin offset: catches naive absolute
  // comparisons against large coordinates.
  const Vec2 base{5000.0, -3000.0};
  const std::vector<Disk> disks{{base + Vec2{500, 0}, 1000.0},
                                {base + Vec2{-500, 0}, 1000.0},
                                {base + Vec2{0, 600}, 900.0}};
  SkylineWorkspace ws;
  expect_agreement(disks, base, ws, "macro scale");
}

TEST(EdgeCasesTest, ManyDisksThroughTwoCommonPoints) {
  // A pencil of circles through two fixed points (0, +-h): every pair of
  // circles intersects at the SAME two points — maximal breakpoint
  // collision for Merge's deduplication.
  const double h = 0.8;
  std::vector<Disk> disks;
  for (const double cx : {-0.9, -0.45, -0.2, 0.0, 0.2, 0.45, 0.9}) {
    const double r = std::sqrt(cx * cx + h * h);
    disks.push_back(Disk{{cx, 0.0}, r});
  }
  SkylineWorkspace ws;
  expect_agreement(disks, {0, 0}, ws, "pencil of circles");
}

TEST(EdgeCasesTest, LargeRandomSetAgreesWithIncremental) {
  // n = 400: far beyond what the unit sweeps use; D&C and incremental must
  // still agree exactly (brute force would be too slow here).
  sim::Xoshiro256 rng(747);
  std::vector<Disk> disks;
  for (int i = 0; i < 400; ++i) {
    const double r = rng.uniform(1.0, 1.5);
    const double d = rng.uniform(0.0, r);
    disks.push_back(Disk{d * geom::unit_at(rng.uniform(0.0, kTwoPi)), r});
  }
  SkylineWorkspace ws;
  const auto dc = compute_skyline(disks, {0, 0}, ws);
  const auto inc = compute_skyline_incremental(disks, {0, 0});
  EXPECT_EQ(dc.skyline_set(), inc.skyline_set());
  EXPECT_EQ(verify_skyline(dc, disks), "");  // Lemma 8's 2n arcs included
}

TEST(EdgeCasesTest, RadiusAtOutOfRangeDiskIndexIsSafe) {
  const Skyline sky({0, 0}, {{0.0, kTwoPi, 7}});  // index beyond the span
  const std::vector<Disk> disks{{{0, 0}, 1.0}};
  EXPECT_DOUBLE_EQ(sky.radius_at(disks, 1.0), 0.0);
}

TEST(EdgeCasesTest, AllDisksZeroRadiusAtOrigin) {
  // Pathological but legal: every disk is the single point o.
  const std::vector<Disk> disks{{{0, 0}, 0.0}, {{0, 0}, 0.0}};
  SkylineWorkspace ws;
  const auto sky = compute_skyline(disks, {0, 0}, ws);
  EXPECT_EQ(sky.skyline_set().size(), 1u);
  EXPECT_NEAR(sky.enclosed_area(disks), 0.0, 1e-12);
}

TEST(EdgeCasesTest, SpikyRadialProfile) {
  // One dominant disk plus many slivers poking out by a hair: stress the
  // sliver-dropping logic without breaking coverage.
  sim::Xoshiro256 rng(555);
  std::vector<Disk> disks{{{0, 0}, 1.0}};
  for (int i = 0; i < 12; ++i) {
    const double a = rng.uniform(0.0, kTwoPi);
    // Center near the boundary, radius slightly over the gap to o.
    const double d = 0.95;
    disks.push_back(Disk{d * geom::unit_at(a), d + 0.06});
  }
  SkylineWorkspace ws;
  expect_agreement(disks, {0, 0}, ws, "spiky profile");
}

TEST(EdgeCasesTest, CoincidentCentersEqualRadii) {
  // Exactly coincident disks: the tie-break (larger radius, then smaller
  // index) must keep exactly one representative, identically in all three
  // algorithms.
  const Disk twin{{0.3, -0.2}, 1.1};
  SkylineWorkspace ws;
  for (const std::size_t copies : {2u, 3u, 6u}) {
    const std::vector<Disk> disks(copies, twin);
    expect_triple_agreement(disks, {0, 0}, ws,
                            "coincident x" + std::to_string(copies));
    EXPECT_EQ(compute_skyline(disks, {0, 0}, ws).skyline_set(),
              (std::vector<std::size_t>{0}));
  }
  // Coincident pair embedded among distinct disks: the pair still yields
  // one representative and the distinct disks are unaffected.
  const std::vector<Disk> mixed{{{0.6, 0.0}, 1.0}, twin, twin,
                                {{-0.5, 0.4}, 1.2}};
  expect_triple_agreement(mixed, {0, 0}, ws,
                          "coincident pair among distinct");
}

TEST(EdgeCasesTest, DiskFullyContainingAllOthers) {
  // One disk dominates the whole set; every algorithm must return exactly
  // that disk, regardless of its index position.
  const Disk big{{0.2, 0.1}, 5.0};
  const std::vector<Disk> small{{{0.4, 0.0}, 1.0},
                                {{-0.3, 0.2}, 0.8},
                                {{0.0, -0.5}, 1.2}};
  SkylineWorkspace ws;
  for (std::size_t pos = 0; pos <= small.size(); ++pos) {
    std::vector<Disk> disks = small;
    disks.insert(disks.begin() + static_cast<std::ptrdiff_t>(pos), big);
    const std::string label = "big disk at index " + std::to_string(pos);
    expect_triple_agreement(disks, {0, 0}, ws, label);
    EXPECT_EQ(compute_skyline(disks, {0, 0}, ws).skyline_set(),
              (std::vector<std::size_t>{pos}))
        << label;
  }
}

TEST(EdgeCasesTest, ArcEndpointsWithinAngleTol) {
  // Circles through two common points, one center perturbed by far less
  // than kAngleTol resolves at the relay: the two pairwise intersection
  // angles land within tolerance of each other, so breakpoint dedup and
  // sliver coalescing must fire identically in all three algorithms.
  const double h = 0.8;
  SkylineWorkspace ws;
  for (const double eps : {0.0, 1e-13, 1e-11, 0.4e-9}) {
    std::vector<Disk> disks;
    for (const double cx : {-0.6, 0.0, 0.6}) {
      disks.push_back(Disk{{cx, 0.0}, std::sqrt(cx * cx + h * h)});
    }
    // Perturb the last circle so it passes within eps of (0, +-h) instead
    // of exactly through them.
    disks.back().center.x += eps;
    expect_triple_agreement(disks, {0, 0}, ws,
                            "near-coincident breakpoints eps=" +
                                std::to_string(eps));
  }
}

}  // namespace
}  // namespace mldcs::core
