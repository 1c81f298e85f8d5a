// Tests for the validation layer itself: the validators must catch broken
// skylines, not just bless correct ones (a validator that can't fail is no
// validator).

#include "core/validate.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/angle.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

using geom::Disk;
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

}  // namespace
}  // namespace mldcs::core
