// Tests for the scenario generators: every generated configuration must be
// a valid local disk set with the advertised structure — tests and benches
// both build on these invariants.

#include "core/scenarios.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/validate.hpp"
#include "geometry/angle.hpp"
#include "geometry/radial.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

TEST(ScenariosTest, RandomLocalSetIsValidAndBidirectional) {
  sim::Xoshiro256 rng(13);
  for (const bool hetero : {false, true}) {
    for (int rep = 0; rep < 20; ++rep) {
      const Scenario sc = random_local_set(rng, 12, hetero);
      ASSERT_EQ(sc.disks.size(), 12u);
      // Valid local set: every disk contains the origin.
      EXPECT_EQ(describe_local_set_violation(sc.disks, sc.origin), "");
      // Full bidirectional rule: ||u_i - o|| <= min(r_0, r_i).
      const double r0 = sc.disks[0].radius;
      for (const geom::Disk& d : sc.disks) {
        EXPECT_LE(geom::distance(d.center, sc.origin),
                  std::min(r0, d.radius) + geom::kTol);
      }
    }
  }
}

TEST(ScenariosTest, RandomLocalSetRadiiRespectModel) {
  sim::Xoshiro256 rng(14);
  const Scenario homo = random_local_set(rng, 10, false, 1.0, 2.0);
  for (const auto& d : homo.disks) EXPECT_DOUBLE_EQ(d.radius, 2.0);
  const Scenario hetero = random_local_set(rng, 10, true, 1.0, 2.0);
  for (const auto& d : hetero.disks) {
    EXPECT_GE(d.radius, 1.0);
    EXPECT_LT(d.radius, 2.0);
  }
}

TEST(ScenariosTest, RandomLocalSetSizeZeroAndOne) {
  sim::Xoshiro256 rng(15);
  EXPECT_TRUE(random_local_set(rng, 0, true).disks.empty());
  const Scenario one = random_local_set(rng, 1, true);
  ASSERT_EQ(one.disks.size(), 1u);
  EXPECT_EQ(one.disks[0].center, one.origin);
}

TEST(ScenariosTest, ConcentricSetStructure) {
  const Scenario sc = concentric_set(5);
  ASSERT_EQ(sc.disks.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sc.disks[i].center, sc.origin);
    EXPECT_DOUBLE_EQ(sc.disks[i].radius, static_cast<double>(i + 1));
  }
}

TEST(ScenariosTest, DuplicateSetAllIdentical) {
  const Scenario sc = duplicate_set(4);
  ASSERT_EQ(sc.disks.size(), 4u);
  for (const auto& d : sc.disks) EXPECT_EQ(d, sc.disks[0]);
  EXPECT_EQ(describe_local_set_violation(sc.disks, sc.origin), "");
}

TEST(ScenariosTest, DominatedSetFirstDiskContainsAll) {
  sim::Xoshiro256 rng(16);
  const Scenario sc = dominated_set(rng, 8);
  for (std::size_t i = 1; i < sc.disks.size(); ++i) {
    EXPECT_TRUE(sc.disks[0].contains_disk(sc.disks[i]));
  }
}

TEST(ScenariosTest, TangentPairTouchesAtOnePoint) {
  const Scenario sc = tangent_pair();
  ASSERT_EQ(sc.disks.size(), 2u);
  // Internal tangency: distance == difference of radii.
  const double d = geom::distance(sc.disks[0].center, sc.disks[1].center);
  EXPECT_NEAR(d, sc.disks[0].radius - sc.disks[1].radius, 1e-12);
}

TEST(ScenariosTest, CollinearSetCentersOnXAxis) {
  const Scenario sc = collinear_set(7);
  for (const auto& d : sc.disks) EXPECT_DOUBLE_EQ(d.center.y, 0.0);
  EXPECT_EQ(describe_local_set_violation(sc.disks, sc.origin), "");
}

TEST(ScenariosTest, Figure41GeometryInvariants) {
  for (std::size_t k : {3u, 7u, 11u}) {
    const Scenario sc = figure41_configuration(k);
    ASSERT_EQ(sc.disks.size(), k + 1);
    // Ring disks: unit radius, centers at distance 1/2.
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_DOUBLE_EQ(sc.disks[i].radius, 1.0);
      EXPECT_NEAR(geom::distance(sc.disks[i].center, sc.origin), 0.5, 1e-12);
    }
    // Central disk radius inside the paper's window (||o-p||, 3/2).
    const double r = sc.disks[k].radius;
    const double half_gap = geom::kPi / static_cast<double>(k);
    const double sin_part = 0.5 * std::sin(half_gap);
    const double op =
        0.5 * std::cos(half_gap) + std::sqrt(1.0 - sin_part * sin_part);
    EXPECT_GT(r, op);
    EXPECT_LT(r, 1.5);
    EXPECT_EQ(describe_local_set_violation(sc.disks, sc.origin), "");
  }
}

TEST(ScenariosTest, Figure41WindowEndpointsBehave) {
  // r_frac = 0 sits exactly at ||o-p||: the central disk grazes the valley
  // points; r_frac = 1 sits at 3/2 where the central disk reaches exactly
  // the unit disks' outer extreme.
  const Scenario lo = figure41_configuration(6, 0.0);
  const Scenario hi = figure41_configuration(6, 1.0);
  EXPECT_LT(lo.disks.back().radius, hi.disks.back().radius);
  EXPECT_NEAR(hi.disks.back().radius, 1.5, 1e-12);
}

TEST(ScenariosTest, Figure32LikeIsValidAndHasDominatedDisk) {
  const Scenario sc = figure32_like_configuration();
  EXPECT_EQ(describe_local_set_violation(sc.disks, sc.origin), "");
  // Disk 3 must be covered by the union of the others: its radial function
  // never exceeds the envelope of the rest.
  std::vector<geom::Disk> others;
  for (std::size_t i = 0; i < sc.disks.size(); ++i) {
    if (i != 3) others.push_back(sc.disks[i]);
  }
  for (int s = 0; s < 720; ++s) {
    const double theta = geom::kTwoPi * s / 720.0;
    EXPECT_LE(geom::radial_distance(sc.disks[3], sc.origin, theta),
              geom::radial_envelope(others, sc.origin, theta) + 1e-9);
  }
}

TEST(ScenariosTest, GeneratorsAreDeterministic) {
  sim::Xoshiro256 a(99), b(99);
  const Scenario s1 = random_local_set(a, 9, true);
  const Scenario s2 = random_local_set(b, 9, true);
  for (std::size_t i = 0; i < s1.disks.size(); ++i) {
    EXPECT_EQ(s1.disks[i], s2.disks[i]);
  }
}

}  // namespace
}  // namespace mldcs::core
