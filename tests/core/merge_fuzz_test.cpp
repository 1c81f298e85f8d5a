// Fuzz-style property tests for Merge beyond the balanced splits the
// divide-and-conquer produces: arbitrary partitions, unbalanced sides,
// three-way associativity, and repeated self-merges.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/merge.hpp"
#include "core/scenarios.hpp"
#include "core/skyline.hpp"
#include "core/skyline_dc.hpp"
#include "core/validate.hpp"
#include "geometry/angle.hpp"
#include "geometry/radial.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

using geom::kTwoPi;

/// Skyline (arc list) of an arbitrary index subset, via the D&C on a
/// temporary disk span with indices remapped back to the full set.
std::vector<Arc> subset_skyline(const std::vector<geom::Disk>& disks,
                                geom::Vec2 o,
                                const std::vector<std::size_t>& subset,
                                SkylineWorkspace& ws) {
  if (subset.empty()) return {};
  std::vector<geom::Disk> chosen;
  chosen.reserve(subset.size());
  for (std::size_t i : subset) chosen.push_back(disks[i]);
  const Skyline sky = compute_skyline(chosen, o, ws);
  std::vector<Arc> arcs(sky.arcs().begin(), sky.arcs().end());
  for (Arc& a : arcs) a.disk = subset[a.disk];
  return normalize_arcs(std::move(arcs));
}

void expect_equals_whole(const std::vector<geom::Disk>& disks, geom::Vec2 o,
                         const std::vector<Arc>& merged, SkylineWorkspace& ws,
                         const std::string& label) {
  const Skyline sky(o, merged);
  EXPECT_TRUE(Skyline::well_formed(merged, disks.size())) << label;
  EXPECT_LT(max_radial_error(sky, disks, 1024), 1e-7) << label;
  EXPECT_EQ(sky.skyline_set(), compute_skyline(disks, o, ws).skyline_set())
      << label;
}

class MergeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeFuzzTest, ArbitraryPartitionsMergeToTheWholeSkyline) {
  sim::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7001 + 3);
  SkylineWorkspace ws;
  for (int rep = 0; rep < 10; ++rep) {
    const Scenario sc = random_local_set(rng, 16, true, 1.0, 1.4);
    // Random partition into two (possibly very unbalanced) halves.
    std::vector<std::size_t> left, right;
    for (std::size_t i = 0; i < sc.disks.size(); ++i) {
      (rng.uniform() < 0.25 ? left : right).push_back(i);
    }
    if (left.empty()) left.push_back(right.back()), right.pop_back();
    const auto merged = merge_skylines(
        subset_skyline(sc.disks, sc.origin, left, ws),
        subset_skyline(sc.disks, sc.origin, right, ws), sc.disks, sc.origin);
    expect_equals_whole(sc.disks, sc.origin, merged, ws,
                        "rep " + std::to_string(rep));
  }
}

TEST_P(MergeFuzzTest, ThreeWayAssociativity) {
  sim::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 9109 + 11);
  const Scenario sc = random_local_set(rng, 12, true);
  std::vector<std::size_t> a, b, c;
  for (std::size_t i = 0; i < sc.disks.size(); ++i) {
    const auto bucket = rng.uniform_int(3);
    (bucket == 0 ? a : bucket == 1 ? b : c).push_back(i);
  }
  SkylineWorkspace ws;
  const auto sa = subset_skyline(sc.disks, sc.origin, a, ws);
  const auto sb = subset_skyline(sc.disks, sc.origin, b, ws);
  const auto sg = subset_skyline(sc.disks, sc.origin, c, ws);

  const auto ab_c = merge_skylines(
      merge_skylines(sa, sb, sc.disks, sc.origin), sg, sc.disks, sc.origin);
  const auto a_bc = merge_skylines(
      sa, merge_skylines(sb, sg, sc.disks, sc.origin), sc.disks, sc.origin);

  // Both groupings must equal the whole-set skyline in coverage and set.
  expect_equals_whole(sc.disks, sc.origin, ab_c, ws, "(ab)c");
  expect_equals_whole(sc.disks, sc.origin, a_bc, ws, "a(bc)");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeFuzzTest, ::testing::Range(0, 6));

TEST(MergeFuzzTest, RepeatedSelfMergeIsStable) {
  sim::Xoshiro256 rng(404);
  const Scenario sc = random_local_set(rng, 10, true);
  SkylineWorkspace ws;
  const Skyline sky = compute_skyline(sc.disks, sc.origin, ws);
  std::vector<Arc> arcs(sky.arcs().begin(), sky.arcs().end());
  for (int k = 0; k < 5; ++k) {
    const auto again = merge_skylines(arcs, arcs, sc.disks, sc.origin);
    EXPECT_EQ(again, arcs) << "self-merge iteration " << k;
  }
}

TEST(MergeFuzzTest, SingletonAgainstWholeMatchesIncrementalStep) {
  sim::Xoshiro256 rng(505);
  const Scenario sc = random_local_set(rng, 9, true);
  // Skyline of all but the last disk, then merge the last one in.
  std::vector<std::size_t> prefix(sc.disks.size() - 1);
  for (std::size_t i = 0; i < prefix.size(); ++i) prefix[i] = i;
  SkylineWorkspace ws;
  const auto base = subset_skyline(sc.disks, sc.origin, prefix, ws);
  const std::vector<Arc> last{
      Arc{0.0, kTwoPi, sc.disks.size() - 1}};
  const auto merged = merge_skylines(base, last, sc.disks, sc.origin);
  expect_equals_whole(sc.disks, sc.origin, merged, ws, "incremental step");
}

}  // namespace
}  // namespace mldcs::core
