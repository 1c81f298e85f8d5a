// Tests for the public MLDCS entry points: validation, error reporting,
// and the paper's worked configurations.

#include "core/mldcs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "core/validate.hpp"
#include "geometry/radial.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

using geom::Disk;
using geom::Vec2;

TEST(LocalDiskSetTest, AcceptsValidSet) {
  const LocalDiskSet set({0, 0}, {{{0, 0}, 1.0}, {{0.5, 0}, 1.0}});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.empty());
  EXPECT_EQ(set.origin(), Vec2(0, 0));
}

TEST(LocalDiskSetTest, AcceptsEmptySet) {
  const LocalDiskSet set({3, 4}, {});
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(mldcs(set).empty());
}

TEST(LocalDiskSetTest, RejectsDiskNotContainingRelay) {
  EXPECT_THROW(LocalDiskSet({0, 0}, {{{5, 0}, 1.0}}), InvalidLocalDiskSet);
}

TEST(LocalDiskSetTest, RejectsNegativeRadius) {
  EXPECT_THROW(LocalDiskSet({0, 0}, {{{0, 0}, -1.0}}), InvalidLocalDiskSet);
}

TEST(LocalDiskSetTest, RejectsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(LocalDiskSet({nan, 0}, {{{0, 0}, 1.0}}), InvalidLocalDiskSet);
  EXPECT_THROW(LocalDiskSet({0, 0}, {{{nan, 0}, 1.0}}), InvalidLocalDiskSet);
  EXPECT_THROW(LocalDiskSet({0, 0}, {{{0, 0}, inf}}), InvalidLocalDiskSet);
}

TEST(LocalDiskSetTest, ViolationMessageNamesTheDisk) {
  const std::string msg =
      describe_local_set_violation(std::vector<Disk>{{{0, 0}, 1.0},
                                                     {{9, 0}, 1.0}},
                                   {0, 0});
  EXPECT_NE(msg.find("disk 1"), std::string::npos);
  EXPECT_NE(msg.find("not a local disk set"), std::string::npos);
}

TEST(LocalDiskSetTest, ValidSetHasEmptyViolation) {
  EXPECT_EQ(describe_local_set_violation(
                std::vector<Disk>{{{0, 0}, 1.0}}, {0, 0}),
            "");
}

TEST(MldcsTest, BoundaryRelayIsAccepted) {
  // ||o - u|| == r exactly: still a legal local disk.
  const LocalDiskSet set({1, 0}, {{{0, 0}, 1.0}});
  EXPECT_EQ(mldcs(set), (std::vector<std::size_t>{0}));
}

TEST(MldcsTest, Figure32LikeConfigurationDropsTheDominatedDisk) {
  const Scenario sc = figure32_like_configuration();
  const LocalDiskSet set(sc.origin, sc.disks);
  const auto result = mldcs(set);
  // Disk 3 is dominated; it must not appear.
  for (std::size_t i : result) EXPECT_NE(i, 3u);
  // The four outer neighbors all contribute; the relay's own small disk is
  // swallowed by them in this configuration.
  EXPECT_EQ(result, (std::vector<std::size_t>{1, 2, 4, 5}));
}

TEST(MldcsTest, SkylineOfMatchesComputeSkyline) {
  sim::Xoshiro256 rng(61);
  const Scenario sc = random_local_set(rng, 7, false);
  const LocalDiskSet set(sc.origin, sc.disks);
  SkylineWorkspace ws;
  EXPECT_EQ(skyline_of(set).skyline_set(),
            compute_skyline(sc.disks, sc.origin, ws).skyline_set());
}

TEST(MldcsTest, ResultIndicesAreSortedAndUnique) {
  sim::Xoshiro256 rng(71);
  for (int rep = 0; rep < 20; ++rep) {
    const Scenario sc = random_local_set(rng, 15, true);
    const auto result = mldcs(LocalDiskSet(sc.origin, sc.disks));
    for (std::size_t k = 1; k < result.size(); ++k) {
      EXPECT_LT(result[k - 1], result[k]);
    }
    for (std::size_t i : result) EXPECT_LT(i, sc.disks.size());
  }
}

TEST(MldcsTest, MldcsIsMinimalNoMemberRemovable) {
  // Removing any member of the MLDCS must lose coverage (each member
  // exclusively covers part of the plane, Theorem 3).  Checked at the
  // removed disk's own arc midpoints, where its radial distance strictly
  // exceeds every other disk's.
  sim::Xoshiro256 rng(81);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 10; ++rep) {
    const Scenario sc = random_local_set(rng, 10, true);
    const Skyline sky = compute_skyline(sc.disks, sc.origin, ws);
    for (std::size_t drop : sky.skyline_set()) {
      std::vector<geom::Disk> others;
      for (std::size_t i = 0; i < sc.disks.size(); ++i) {
        if (i != drop) others.push_back(sc.disks[i]);
      }
      bool strictly_needed = false;
      for (const Arc& a : sky.arcs()) {
        if (a.disk != drop) continue;
        const double mine =
            geom::radial_distance(sc.disks[drop], sc.origin, a.mid());
        const double rest = geom::radial_envelope(others, sc.origin, a.mid());
        if (mine > rest + 1e-9) strictly_needed = true;
      }
      EXPECT_TRUE(strictly_needed) << "rep " << rep << " drop " << drop;
    }
  }
}

}  // namespace
}  // namespace mldcs::core
