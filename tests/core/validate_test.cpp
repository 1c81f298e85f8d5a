// Tests for the validation layer itself: the validators must catch broken
// skylines, not just bless correct ones (a validator that can't fail is no
// validator).  Includes a fuzz-style randomized sweep asserting that every
// skyline the engine and the incremental reference produce satisfies the
// contracts.

#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "core/skyline_reference.hpp"
#include "geometry/angle.hpp"
#include "geometry/tolerance.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

using geom::Disk;
using geom::kAngleTol;
using geom::kTwoPi;

TEST(ValidateTest, MaxRadialErrorZeroForCorrectSkyline) {
  sim::Xoshiro256 rng(1);
  const Scenario sc = random_local_set(rng, 8, true);
  SkylineWorkspace ws;
  const auto sky = compute_skyline(sc.disks, sc.origin, ws);
  EXPECT_LT(max_radial_error(sky, sc.disks, 1024), 1e-9);
}

TEST(ValidateTest, MaxRadialErrorDetectsWrongDiskAssignment) {
  // Take a correct 2-disk skyline and swap the arcs' disk labels: the
  // radial error must spike.
  const std::vector<Disk> disks{{{0.5, 0}, 1.0}, {{-0.5, 0}, 1.0}};
  SkylineWorkspace ws;
  const auto good = compute_skyline(disks, {0, 0}, ws);
  std::vector<Arc> broken(good.arcs().begin(), good.arcs().end());
  for (Arc& a : broken) a.disk = 1 - a.disk;
  const Skyline bad({0, 0}, std::move(broken));
  EXPECT_GT(max_radial_error(bad, disks, 1024), 0.1);
}

TEST(ValidateTest, VerifySkylineAcceptsCorrect) {
  sim::Xoshiro256 rng(2);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 10; ++rep) {
    const Scenario sc = random_local_set(rng, 12, true);
    const auto sky = compute_skyline(sc.disks, sc.origin, ws);
    EXPECT_EQ(verify_skyline(sky, sc.disks), "");
  }
}

TEST(ValidateTest, VerifySkylineRejectsOffEnvelopeArc) {
  const std::vector<Disk> disks{{{0, 0}, 2.0}, {{0, 0}, 1.0}};
  // Claim the whole boundary belongs to the inner disk.
  const Skyline bad({0, 0}, {{0.0, kTwoPi, 1}});
  const std::string msg = verify_skyline(bad, disks);
  EXPECT_NE(msg.find("not on the envelope"), std::string::npos);
}

TEST(ValidateTest, VerifySkylineRejectsRadialDiscontinuity) {
  // Two separated-but-local disks stitched with a false breakpoint: the
  // shared endpoint has different radii on each side.
  const std::vector<Disk> disks{{{0.5, 0}, 1.0}, {{-0.5, 0}, 1.0}};
  const Skyline bad({0, 0}, {{0.0, 1.0, 0}, {1.0, kTwoPi, 1}});
  EXPECT_NE(verify_skyline(bad, disks), "");
}

TEST(ValidateTest, VerifySkylineRejectsMoreArcsThanLemma8Allows) {
  // Two identical disks: every arc list alternating between them is
  // structurally valid, on the envelope and radially continuous, but a
  // skyline of 2 disks has at most 4 arcs.
  const std::vector<Disk> disks{{{0.3, 0}, 1.0}, {{0.3, 0}, 1.0}};
  const std::vector<Arc> arcs{{0.0, 1.0, 0}, {1.0, 2.0, 1}, {2.0, 3.0, 0},
                              {3.0, 4.0, 1}, {4.0, kTwoPi, 0}};
  const Skyline five({0, 0}, arcs);
  ASSERT_EQ(check_arc_list(five.arcs(), disks.size()), "");
  ASSERT_LT(max_radial_error(five, disks, 1024), 1e-12);
  const std::string msg = verify_skyline(five, disks);
  EXPECT_NE(msg.find("Lemma 8"), std::string::npos) << msg;
}

TEST(ValidateTest, VerifySkylineRejectsEmptyForNonEmptySet) {
  const std::vector<Disk> disks{{{0, 0}, 1.0}};
  const Skyline empty;
  EXPECT_NE(verify_skyline(empty, disks), "");
}

TEST(ValidateTest, VerifySkylineAcceptsEmptyForEmptySet) {
  const Skyline empty;
  EXPECT_EQ(verify_skyline(empty, {}), "");
}

TEST(ValidateTest, IsDiskCoverSetAcceptsFullSet) {
  sim::Xoshiro256 rng(3);
  const Scenario sc = random_local_set(rng, 10, true);
  std::vector<std::size_t> all(sc.disks.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  EXPECT_TRUE(is_disk_cover_set(all, sc.disks, sc.origin));
}

TEST(ValidateTest, IsDiskCoverSetRejectsEmptySubsetOfNonEmpty) {
  const std::vector<Disk> disks{{{0, 0}, 1.0}};
  EXPECT_FALSE(is_disk_cover_set({}, disks, {0, 0}));
}

TEST(ValidateTest, IsDiskCoverSetRejectsOutOfRangeIndices) {
  const std::vector<Disk> disks{{{0, 0}, 1.0}};
  const std::vector<std::size_t> bad{5};
  EXPECT_FALSE(is_disk_cover_set(bad, disks, {0, 0}));
}

TEST(ValidateTest, ExclusiveWitnessExistsForSkylineDisks) {
  sim::Xoshiro256 rng(4);
  const Scenario sc = random_local_set(rng, 10, true);
  SkylineWorkspace ws;
  const auto sky = compute_skyline(sc.disks, sc.origin, ws);
  for (std::size_t i : sky.skyline_set()) {
    const auto witness = exclusive_coverage_witness(sky, sc.disks, i);
    ASSERT_TRUE(witness.has_value()) << "disk " << i;
    // The witness must indeed be exclusively covered.
    EXPECT_TRUE(sc.disks[i].contains(*witness, 0.0));
    for (std::size_t j = 0; j < sc.disks.size(); ++j) {
      if (j != i) {
        EXPECT_FALSE(sc.disks[j].contains(*witness, 0.0));
      }
    }
  }
}

TEST(ValidateTest, ExclusiveWitnessAbsentForNonSkylineDisks) {
  const Scenario sc = figure32_like_configuration();
  SkylineWorkspace ws;
  const auto sky = compute_skyline(sc.disks, sc.origin, ws);
  // Disk 3 is dominated: no arcs, no witness.
  EXPECT_FALSE(exclusive_coverage_witness(sky, sc.disks, 3).has_value());
}

TEST(CheckArcListTest, AcceptsEmptyAndComputedSkylines) {
  EXPECT_EQ(check_arc_list({}), "");
  const Scenario sc = figure32_like_configuration();
  SkylineWorkspace ws;
  const Skyline sky = compute_skyline(sc.disks, sc.origin, ws);
  EXPECT_EQ(check_arc_list(sky.arcs(), sc.disks.size()), "");
}

TEST(CheckArcListTest, RejectsStructuralCorruptions) {
  // A valid two-arc list to corrupt.
  const std::vector<Arc> good{{0.0, 3.0, 0}, {3.0, kTwoPi, 1}};
  ASSERT_EQ(check_arc_list(good), "");

  std::vector<Arc> bad = good;
  bad.front().start = 0.25;  // does not start at the +x axis
  EXPECT_NE(check_arc_list(bad), "");

  bad = good;
  bad.back().end = kTwoPi - 0.5;  // no closure at the seam
  EXPECT_NE(check_arc_list(bad), "");

  bad = good;
  bad[1].start = 3.5;  // gap between arcs
  EXPECT_NE(check_arc_list(bad), "");

  bad = good;
  bad[1].disk = 0;  // uncoalesced same-disk neighbors
  EXPECT_NE(check_arc_list(bad), "");

  bad = {{0.0, 0.0, 0}, {0.0, kTwoPi, 1}};  // empty arc
  EXPECT_NE(check_arc_list(bad), "");

  bad = {{0.0, 3.0, 0}, {3.0, 3.0 + 0.5 * kAngleTol, 1},
         {3.0 + 0.5 * kAngleTol, kTwoPi, 2}};  // sub-tolerance sliver
  EXPECT_NE(check_arc_list(bad), "");

  bad = good;
  bad[1].disk = 9;  // index out of range for a 2-disk set
  EXPECT_NE(check_arc_list(bad, 2), "");
  EXPECT_EQ(check_arc_list(good, 2), "");
}

TEST(CheckLocalDiskPremiseTest, AcceptsValidAndRejectsViolations) {
  const std::vector<Disk> good{{{0.0, 0.0}, 1.0}, {{0.5, 0.0}, 0.8}};
  EXPECT_EQ(describe_local_set_violation(good, {0, 0}), "");

  // Relay outside the second disk: a one-directional link.
  const std::vector<Disk> far{{{0.0, 0.0}, 1.0}, {{5.0, 0.0}, 0.8}};
  EXPECT_NE(describe_local_set_violation(far, {0, 0}), "");

  const std::vector<Disk> negative{{{0.0, 0.0}, -1.0}};
  EXPECT_NE(describe_local_set_violation(negative, {0, 0}), "");
}

TEST(CheckMinimalityTest, AcceptsComputedSkylines) {
  const Scenario sc = figure32_like_configuration();
  SkylineWorkspace ws;
  EXPECT_EQ(check_skyline_minimality(compute_skyline(sc.disks, sc.origin, ws),
                                     sc.disks),
            "");
  EXPECT_EQ(check_skyline_minimality(
                compute_skyline_incremental(sc.disks, sc.origin), sc.disks),
            "");
}

TEST(CheckMinimalityTest, RejectsArcFromDominatedDisk) {
  // Disk 1 strictly inside disk 0: it must never own an arc.
  const std::vector<Disk> disks{{{0.0, 0.0}, 2.0}, {{0.1, 0.0}, 0.5}};
  SkylineWorkspace ws;
  Skyline good = compute_skyline(disks, {0, 0}, ws);
  ASSERT_EQ(good.skyline_set(), (std::vector<std::size_t>{0}));

  // Forge a skyline crediting half the boundary to the dominated disk.
  const Skyline forged({0, 0},
                       {{0.0, geom::kPi, 1}, {geom::kPi, kTwoPi, 0}});
  EXPECT_NE(check_skyline_minimality(forged, disks), "");
}

TEST(CheckMinimalityTest, RejectsCoverageLoss) {
  // Two half-overlapping disks: both are on the skyline.  A "skyline" that
  // credits everything to disk 0 loses disk 1's exclusive area.
  const std::vector<Disk> disks{{{-0.4, 0.0}, 1.0}, {{0.4, 0.0}, 1.0}};
  SkylineWorkspace ws;
  const Skyline truth = compute_skyline(disks, {0, 0}, ws);
  ASSERT_EQ(truth.skyline_set().size(), 2u);

  const Skyline forged({0, 0}, {{0.0, kTwoPi, 0}});
  EXPECT_NE(check_skyline_minimality(forged, disks), "");
}

TEST(InvariantFuzzTest, RandomLocalSetsSatisfyAllInvariants) {
  // Fuzz-style randomized harness: random local disk sets (including
  // boundary-relay and coincident-disk configurations) must produce
  // skylines that pass every validator, for both the D&C and the
  // incremental algorithm.
  sim::Xoshiro256 rng(20260807);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 60; ++rep) {
    std::vector<Disk> disks;
    const std::size_t n = 2 + rng.uniform_int(10);
    for (std::size_t i = 0; i < n; ++i) {
      double r = rng.uniform(0.5, 2.0);
      double d;
      switch (rng.uniform_int(4)) {
        case 0:  d = r; break;                        // relay on the boundary
        case 1:  d = 0.0; break;                      // concentric with relay
        default: d = rng.uniform(0.0, r); break;      // generic interior
      }
      Disk disk{d * geom::unit_at(rng.uniform(0.0, kTwoPi)), r};
      if (!disks.empty() && rng.uniform_int(5) == 0) {
        disk = disks.back();  // exact duplicate: coincident center + radius
      }
      disks.push_back(disk);
    }
    const std::string label = "rep " + std::to_string(rep);

    EXPECT_EQ(describe_local_set_violation(disks, {0, 0}), "") << label;
    const Skyline dc = compute_skyline(disks, {0, 0}, ws);
    EXPECT_EQ(check_skyline_minimality(dc, disks), "") << label;
    const Skyline inc = compute_skyline_incremental(disks, {0, 0});
    EXPECT_EQ(check_skyline_minimality(inc, disks), "") << label;
  }
}

}  // namespace
}  // namespace mldcs::core
