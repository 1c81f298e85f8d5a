// Tests of the correctness-tooling layer itself: the MLDCS_CHECK /
// MLDCS_DCHECK macro family (abort and soft-count modes) and the structured
// validators, including a fuzz-style randomized sweep asserting that every
// skyline the three algorithms produce satisfies the invariants.

#include "core/invariants.hpp"

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
using geom::Vec2;

/// RAII guard: switch the invariant handler to soft-count mode for one test
/// and restore abort mode (and a clean counter) afterwards.
class SoftFailScope {
 public:
  SoftFailScope() {
    reset_invariant_failures();
    set_invariant_action(InvariantAction::kCount);
  }
  ~SoftFailScope() {
    set_invariant_action(InvariantAction::kAbort);
    reset_invariant_failures();
  }
  SoftFailScope(const SoftFailScope&) = delete;
  SoftFailScope& operator=(const SoftFailScope&) = delete;
};

TEST(InvariantMacrosTest, PassingCheckHasNoEffect) {
  const SoftFailScope scope;
  MLDCS_CHECK(1 + 1 == 2, "never evaluated");
  MLDCS_CHECK_OK(std::string{});
  EXPECT_EQ(invariant_failure_count(), 0u);
  EXPECT_EQ(first_invariant_failure(), "");
}

TEST(InvariantMacrosTest, SoftFailCountsAndRecordsFirstMessage) {
  const SoftFailScope scope;
  const int answer = 41;
  MLDCS_CHECK(answer == 42, "answer was " << answer);
  MLDCS_CHECK(false, "second failure");
  EXPECT_EQ(invariant_failure_count(), 2u);
  const std::string first = first_invariant_failure();
  EXPECT_NE(first.find("answer == 42"), std::string::npos) << first;
  EXPECT_NE(first.find("answer was 41"), std::string::npos) << first;
  EXPECT_NE(first.find("invariants_test.cpp"), std::string::npos) << first;
}

TEST(InvariantMacrosTest, CheckOkUsesValidatorMessageAsDetail) {
  const SoftFailScope scope;
  MLDCS_CHECK_OK(std::string("the envelope drifted"));
  EXPECT_EQ(invariant_failure_count(), 1u);
  EXPECT_NE(first_invariant_failure().find("the envelope drifted"),
            std::string::npos);
}

TEST(InvariantMacrosTest, ResetClearsCounterAndMessage) {
  const SoftFailScope scope;
  MLDCS_CHECK(false, "boom");
  reset_invariant_failures();
  EXPECT_EQ(invariant_failure_count(), 0u);
  EXPECT_EQ(first_invariant_failure(), "");
}

#if GTEST_HAS_DEATH_TEST
TEST(InvariantMacrosDeathTest, AbortModeAbortsWithExpressionDump) {
  EXPECT_DEATH(MLDCS_CHECK(false, "fatal detail " << 123),
               "MLDCS invariant violation");
}
#endif

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
  EXPECT_EQ(check_local_disk_premise(good, {0, 0}), "");

  // Relay outside the second disk: a one-directional link.
  const std::vector<Disk> far{{{0.0, 0.0}, 1.0}, {{5.0, 0.0}, 0.8}};
  EXPECT_NE(check_local_disk_premise(far, {0, 0}), "");

  const std::vector<Disk> negative{{{0.0, 0.0}, -1.0}};
  EXPECT_NE(check_local_disk_premise(negative, {0, 0}), "");
}

TEST(CheckMinimalityTest, AcceptsComputedSkylines) {
  const Scenario sc = figure32_like_configuration();
  SkylineWorkspace ws;
  EXPECT_EQ(check_skyline_minimality(sc.disks,
                                     compute_skyline(sc.disks, sc.origin, ws)),
            "");
  EXPECT_EQ(check_skyline_minimality(
                sc.disks, compute_skyline_incremental(sc.disks, sc.origin)),
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
  EXPECT_NE(check_skyline_minimality(disks, forged), "");
}

TEST(CheckMinimalityTest, RejectsCoverageLoss) {
  // Two half-overlapping disks: both are on the skyline.  A "skyline" that
  // credits everything to disk 0 loses disk 1's exclusive area.
  const std::vector<Disk> disks{{{-0.4, 0.0}, 1.0}, {{0.4, 0.0}, 1.0}};
  SkylineWorkspace ws;
  const Skyline truth = compute_skyline(disks, {0, 0}, ws);
  ASSERT_EQ(truth.skyline_set().size(), 2u);

  const Skyline forged({0, 0}, {{0.0, kTwoPi, 0}});
  EXPECT_NE(check_skyline_minimality(disks, forged), "");
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

    const Skyline dc = compute_skyline(disks, {0, 0}, ws);
    EXPECT_EQ(check_local_disk_premise(disks, {0, 0}), "") << label;
    EXPECT_EQ(check_arc_list(dc.arcs(), disks.size()), "") << label;
    EXPECT_EQ(check_skyline_minimality(disks, dc), "") << label;

    const Skyline inc = compute_skyline_incremental(disks, {0, 0});
    EXPECT_EQ(check_arc_list(inc.arcs(), disks.size()), "") << label;
    EXPECT_EQ(check_skyline_minimality(disks, inc), "") << label;
  }
}

}  // namespace
}  // namespace mldcs::core
