// Cross-validation property tests: the divide-and-conquer skyline against
// the brute-force envelope and the incremental skyline, over random and
// degenerate local disk sets; plus the paper's structural claims (Theorem 3
// exclusive coverage, Lemma 8 arc bound, Figure 4.1 arc explosion).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/scenarios.hpp"
#include "geometry/area.hpp"
#include "core/skyline_dc.hpp"
#include "core/skyline_reference.hpp"
#include "core/validate.hpp"
#include "geometry/angle.hpp"
#include "geometry/radial.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

using geom::kTwoPi;

/// Checks that all three skyline computations agree on the given scenario:
/// identical radial coverage, identical skyline sets (under the shared
/// deterministic tie-break the arc structure itself must match), and all
/// validators pass.
void expect_skylines_agree(const Scenario& sc, SkylineWorkspace& ws,
                           const std::string& label) {
  const auto dc = compute_skyline(sc.disks, sc.origin, ws);
  const auto bf = compute_skyline_bruteforce(sc.disks, sc.origin);
  const auto inc = compute_skyline_incremental(sc.disks, sc.origin);

  EXPECT_EQ(verify_skyline(dc, sc.disks), "") << label;
  EXPECT_EQ(verify_skyline(bf, sc.disks), "") << label;
  EXPECT_EQ(verify_skyline(inc, sc.disks), "") << label;

  EXPECT_LT(max_radial_error(dc, sc.disks, 2048), 1e-7) << label;
  EXPECT_LT(max_radial_error(bf, sc.disks, 2048), 1e-7) << label;
  EXPECT_LT(max_radial_error(inc, sc.disks, 2048), 1e-7) << label;

  EXPECT_EQ(dc.skyline_set(), bf.skyline_set()) << label;
  EXPECT_EQ(dc.skyline_set(), inc.skyline_set()) << label;

  // Lemma 8: at most 2n arcs.
  EXPECT_LE(dc.arc_count(), 2 * sc.disks.size()) << label;

  // Theorem 3, minimality direction: every skyline disk exclusively covers
  // some point, so no disk cover set can omit it.
  for (std::size_t i : dc.skyline_set()) {
    EXPECT_TRUE(exclusive_coverage_witness(dc, sc.disks, i).has_value())
        << label << " disk " << i;
  }

  // Theorem 3, cover direction: the skyline set covers everything.
  const auto set = dc.skyline_set();
  EXPECT_TRUE(is_disk_cover_set(set, sc.disks, sc.origin, 2048)) << label;
}

// ---------------------------------------------------------------------------
// Random sweeps (parameterized over size x heterogeneity x seed).

class SkylineRandomTest
    : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

TEST_P(SkylineRandomTest, AllAlgorithmsAgree) {
  const auto [n, hetero, seed] = GetParam();
  sim::Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 1000003 + 17);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 5; ++rep) {
    const Scenario sc =
        random_local_set(rng, static_cast<std::size_t>(n), hetero);
    expect_skylines_agree(
        sc, ws, "n=" + std::to_string(n) + " hetero=" + std::to_string(hetero) +
                " seed=" + std::to_string(seed) + " rep=" + std::to_string(rep));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkylineRandomTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 13, 21, 34, 55),
                       ::testing::Bool(), ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Degenerate configurations.

TEST(SkylineDegenerateTest, EmptySet) {
  SkylineWorkspace ws;
  const auto sky = compute_skyline({}, {0, 0}, ws);
  EXPECT_TRUE(sky.empty());
  EXPECT_TRUE(sky.skyline_set().empty());
}

TEST(SkylineDegenerateTest, SingleDisk) {
  const std::vector<geom::Disk> one{{{0.2, 0.1}, 1.0}};
  SkylineWorkspace ws;
  const auto sky = compute_skyline(one, {0, 0}, ws);
  ASSERT_EQ(sky.arc_count(), 1u);
  EXPECT_EQ(sky.skyline_set(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(verify_skyline(sky, one), "");
}

TEST(SkylineDegenerateTest, ConcentricDisksKeepOnlyLargest) {
  const Scenario sc = concentric_set(8);
  SkylineWorkspace ws;
  const auto sky = compute_skyline(sc.disks, sc.origin, ws);
  EXPECT_EQ(sky.skyline_set(), (std::vector<std::size_t>{7}));
  expect_skylines_agree(sc, ws, "concentric");
}

TEST(SkylineDegenerateTest, DuplicateDisksKeepExactlyOne) {
  SkylineWorkspace ws;
  for (std::size_t copies : {2u, 3u, 7u}) {
    const Scenario sc = duplicate_set(copies);
    const auto sky = compute_skyline(sc.disks, sc.origin, ws);
    EXPECT_EQ(sky.skyline_set().size(), 1u) << copies << " copies";
    EXPECT_EQ(sky.skyline_set()[0], 0u) << "tie-break must pick index 0";
  }
}

TEST(SkylineDegenerateTest, DominatedSetKeepsOnlyTheBigDisk) {
  sim::Xoshiro256 rng(404);
  const Scenario sc = dominated_set(rng, 12);
  SkylineWorkspace ws;
  const auto sky = compute_skyline(sc.disks, sc.origin, ws);
  EXPECT_EQ(sky.skyline_set(), (std::vector<std::size_t>{0}));
  expect_skylines_agree(sc, ws, "dominated");
}

TEST(SkylineDegenerateTest, InternallyTangentPair) {
  const Scenario sc = tangent_pair();
  SkylineWorkspace ws;
  const auto sky = compute_skyline(sc.disks, sc.origin, ws);
  EXPECT_EQ(sky.skyline_set(), (std::vector<std::size_t>{0}));
  expect_skylines_agree(sc, ws, "tangent");
}

TEST(SkylineDegenerateTest, CollinearCenters) {
  SkylineWorkspace ws;
  for (std::size_t n : {2u, 5u, 9u, 17u}) {
    expect_skylines_agree(collinear_set(n), ws,
                          "collinear n=" + std::to_string(n));
  }
}

TEST(SkylineDegenerateTest, ZeroRadiusRelayAmongNormalDisks) {
  // A zero-radius disk exactly at the origin is a legal local disk (it
  // contains o); it must never appear in the skyline set when any other
  // disk is present.
  const std::vector<geom::Disk> disks{{{0, 0}, 0.0}, {{0.1, 0}, 1.0}};
  SkylineWorkspace ws;
  const auto sky = compute_skyline(disks, {0, 0}, ws);
  EXPECT_EQ(sky.skyline_set(), (std::vector<std::size_t>{1}));
}

// ---------------------------------------------------------------------------
// The Figure 4.1 construction: the central disk added last contributes k
// arcs, demonstrating why Lemma 8 requires decreasing-radius insertion —
// while the *total* arc count still respects the 2n bound.

class Figure41Test : public ::testing::TestWithParam<int> {};

TEST_P(Figure41Test, CentralDiskContributesKArcs) {
  const std::size_t k = static_cast<std::size_t>(GetParam());
  const Scenario sc = figure41_configuration(k);
  SkylineWorkspace ws;
  const auto sky = compute_skyline(sc.disks, sc.origin, ws);
  EXPECT_EQ(verify_skyline(sky, sc.disks), "");

  std::size_t central_arcs = 0;
  for (const auto& [disk, arcs] : sky.arcs_per_disk()) {
    if (disk == k) central_arcs = arcs;  // disks[k] is the central disk
  }
  EXPECT_EQ(central_arcs, k);
  EXPECT_LE(sky.arc_count(), 2 * sc.disks.size());  // Lemma 8 still holds
}

INSTANTIATE_TEST_SUITE_P(K, Figure41Test, ::testing::Values(3, 4, 5, 6, 8, 12));

TEST(Figure41Test, BelowThresholdRadiusContributesNothing) {
  // With r below ||o - p|| the central disk is under the envelope
  // everywhere, so it contributes no arcs.
  Scenario sc = figure41_configuration(5);
  sc.disks.back().radius *= 0.80;  // drop below the valley distance
  SkylineWorkspace ws;
  const auto sky = compute_skyline(sc.disks, sc.origin, ws);
  for (const auto& [disk, arcs] : sky.arcs_per_disk()) {
    EXPECT_NE(disk, 5u);
  }
}

// ---------------------------------------------------------------------------
// Lemma 8 stress: arc count <= 2n over many random sets, including the
// regimes (many similar radii, dense centers) where arcs multiply.

class Lemma8Test : public ::testing::TestWithParam<int> {};

TEST_P(Lemma8Test, ArcCountAtMostTwiceDiskCount) {
  sim::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 2 + rng.uniform_int(40);
    const Scenario sc = random_local_set(rng, n, true, 1.0, 1.05);
    const auto sky = compute_skyline(sc.disks, sc.origin, ws);
    EXPECT_LE(sky.arc_count(), 2 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma8Test, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Exact union-area agreement: skyline sector integral vs grid estimate.

TEST(SkylineAreaTest, EnclosedAreaMatchesGridEstimate) {
  sim::Xoshiro256 rng(2024);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 5; ++rep) {
    const Scenario sc = random_local_set(rng, 10, true);
    const auto sky = compute_skyline(sc.disks, sc.origin, ws);
    const double exact = sky.enclosed_area(sc.disks);
    const double grid = geom::union_area_grid(sc.disks, 700);
    EXPECT_NEAR(exact, grid, exact * 0.01) << "rep " << rep;
  }
}

TEST(SkylineAreaTest, SkylineSetPreservesExactArea) {
  // Theorem 3 in area form: the union of just the skyline disks has the
  // same exact area as the union of all disks.
  sim::Xoshiro256 rng(7777);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 10; ++rep) {
    const Scenario sc = random_local_set(rng, 14, true);
    const auto sky = compute_skyline(sc.disks, sc.origin, ws);
    std::vector<geom::Disk> subset;
    for (std::size_t i : sky.skyline_set()) subset.push_back(sc.disks[i]);
    const auto sub_sky = compute_skyline(subset, sc.origin, ws);
    EXPECT_NEAR(sky.enclosed_area(sc.disks), sub_sky.enclosed_area(subset),
                1e-6);
  }
}

// ---------------------------------------------------------------------------
// Order invariance: permuting the input disks never changes coverage or the
// (index-mapped) skyline set.

TEST(SkylineOrderTest, PermutationInvariance) {
  sim::Xoshiro256 rng(31415);
  const Scenario sc = random_local_set(rng, 12, true);
  SkylineWorkspace ws;
  const auto base = compute_skyline(sc.disks, sc.origin, ws).skyline_set();

  std::vector<std::size_t> perm(sc.disks.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (int shuffle = 0; shuffle < 10; ++shuffle) {
    // Fisher-Yates with our deterministic RNG.
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.uniform_int(i)]);
    }
    std::vector<geom::Disk> shuffled(sc.disks.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      shuffled[i] = sc.disks[perm[i]];
    }
    auto got = compute_skyline(shuffled, sc.origin, ws).skyline_set();
    // Map back through the permutation.
    std::vector<std::size_t> mapped;
    for (std::size_t i : got) mapped.push_back(perm[i]);
    std::sort(mapped.begin(), mapped.end());
    EXPECT_EQ(mapped, base) << "shuffle " << shuffle;
  }
}

}  // namespace
}  // namespace mldcs::core
