// Tests for the Merge procedure: the three cases of Section 3.4 on
// hand-constructed configurations, plus structural properties.

#include "core/merge.hpp"

#include <gtest/gtest.h>

#include "core/skyline.hpp"
#include "core/validate.hpp"
#include "geometry/angle.hpp"
#include "geometry/radial.hpp"

namespace mldcs::core {
namespace {

using geom::Disk;
using geom::kTwoPi;
using geom::Vec2;

constexpr Vec2 kO{0.0, 0.0};

std::vector<Arc> full_circle(std::size_t disk) {
  return {Arc{0.0, kTwoPi, disk}};
}

TEST(OuterDiskAtTest, PicksRadiallyFartherDisk) {
  const std::vector<Disk> disks{{{0.5, 0}, 1.0}, {{-0.5, 0}, 1.0}};
  EXPECT_EQ(outer_disk_at(disks, kO, 0.0, 0, 1), 0u);   // east: disk 0 bulges
  EXPECT_EQ(outer_disk_at(disks, kO, geom::kPi, 0, 1), 1u);  // west: disk 1
}

TEST(OuterDiskAtTest, TieBreaksByRadiusThenIndex) {
  const std::vector<Disk> same{{{0, 0}, 1.0}, {{0, 0}, 1.0}};
  EXPECT_EQ(outer_disk_at(same, kO, 1.0, 0, 1), 0u);
  EXPECT_EQ(outer_disk_at(same, kO, 1.0, 1, 0), 0u);  // order-insensitive

  // Internally tangent at angle 0: radial tie there, larger radius wins.
  const std::vector<Disk> tangent{{{1.0, 0.0}, 1.0}, {{0.0, 0.0}, 2.0}};
  EXPECT_EQ(outer_disk_at(tangent, kO, 0.0, 0, 1), 1u);
}

TEST(MergeTest, EmptyInputsPassThrough) {
  const std::vector<Disk> disks{{{0, 0}, 1.0}};
  const auto sl = full_circle(0);
  EXPECT_EQ(merge_skylines({}, sl, disks, kO), sl);
  EXPECT_EQ(merge_skylines(sl, {}, disks, kO), sl);
  EXPECT_TRUE(merge_skylines({}, {}, disks, kO).empty());
}

TEST(MergeTest, Case1NoIntersectionOuterWins) {
  // Concentric disks never cross: merged skyline is just the bigger disk.
  const std::vector<Disk> disks{{{0, 0}, 1.0}, {{0, 0}, 2.0}};
  const auto merged =
      merge_skylines(full_circle(0), full_circle(1), disks, kO);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].disk, 1u);
  EXPECT_EQ(check_arc_list(merged, 2), "");
}

TEST(MergeTest, Case3TwoCrossingsProduceTwoArcs) {
  // Two unit disks offset east/west cross at two points; each contributes
  // one arc of the merged skyline... accounting for the +x-axis split, the
  // east disk's arc is split into two pieces (start and end of the list).
  const std::vector<Disk> disks{{{0.5, 0.0}, 1.0}, {{-0.5, 0.0}, 1.0}};
  const auto merged =
      merge_skylines(full_circle(0), full_circle(1), disks, kO);
  EXPECT_EQ(check_arc_list(merged, 2), "");
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].disk, 0u);  // [0, pi/2): east disk
  EXPECT_EQ(merged[1].disk, 1u);  // [pi/2, 3pi/2): west disk
  EXPECT_EQ(merged[2].disk, 0u);  // [3pi/2, 2pi): east disk again
  EXPECT_NEAR(merged[0].end, geom::kPi / 2, 1e-9);
  EXPECT_NEAR(merged[1].end, 3 * geom::kPi / 2, 1e-9);
}

TEST(MergeTest, CoincidentDisksKeepSmallestIndex) {
  const std::vector<Disk> disks{{{0, 0}, 1.0}, {{0, 0}, 1.0}};
  const auto merged =
      merge_skylines(full_circle(0), full_circle(1), disks, kO);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].disk, 0u);
}

TEST(MergeTest, InternalTangencyIsNotACrossing) {
  // Disk 0 internally tangent to disk 1 at (2, 0): the tangent point must
  // not split the skyline into spurious arcs.
  const std::vector<Disk> disks{{{1.0, 0.0}, 1.0}, {{0.0, 0.0}, 2.0}};
  const auto merged =
      merge_skylines(full_circle(0), full_circle(1), disks, kO);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].disk, 1u);
}

TEST(MergeTest, ResultIsUpperEnvelopePointwise) {
  const std::vector<Disk> disks{{{0.7, 0.1}, 1.3}, {{-0.4, -0.5}, 1.6}};
  const auto merged =
      merge_skylines(full_circle(0), full_circle(1), disks, kO);
  EXPECT_EQ(check_arc_list(merged, 2), "");
  const Skyline sky(kO, merged);
  for (int k = 0; k < 720; ++k) {
    const double theta = kTwoPi * k / 720.0;
    EXPECT_NEAR(sky.radius_at(disks, theta),
                geom::radial_envelope(disks, kO, theta), 1e-9)
        << "theta=" << theta;
  }
}

TEST(MergeTest, StatsAreAccumulated) {
  const std::vector<Disk> disks{{{0.5, 0.0}, 1.0}, {{-0.5, 0.0}, 1.0}};
  MergeStats stats;
  (void)merge_skylines(full_circle(0), full_circle(1), disks, kO, &stats);
  EXPECT_GT(stats.spans, 0u);
  EXPECT_GT(stats.circle_intersections, 0u);
  EXPECT_GT(stats.arcs_emitted, 0u);
}

TEST(MergeTest, MergeIsCommutativeOnCoverage) {
  const std::vector<Disk> disks{{{0.6, 0.2}, 1.1}, {{-0.3, 0.5}, 1.4}};
  const auto ab = merge_skylines(full_circle(0), full_circle(1), disks, kO);
  const auto ba = merge_skylines(full_circle(1), full_circle(0), disks, kO);
  const Skyline sab(kO, ab);
  const Skyline sba(kO, ba);
  for (int k = 0; k < 360; ++k) {
    const double theta = kTwoPi * k / 360.0;
    EXPECT_NEAR(sab.radius_at(disks, theta), sba.radius_at(disks, theta),
                1e-9);
  }
}

TEST(MergeTest, MergeWithSelfIsIdentityOnCoverage) {
  const std::vector<Disk> disks{{{0.5, 0.0}, 1.0}, {{-0.5, 0.0}, 1.0}};
  const auto once = merge_skylines(full_circle(0), full_circle(1), disks, kO);
  const auto twice = merge_skylines(once, once, disks, kO);
  EXPECT_EQ(once, twice);
}

}  // namespace
}  // namespace mldcs::core
