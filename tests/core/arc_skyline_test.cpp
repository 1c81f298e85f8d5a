// Tests for the Arc representation, the Skyline container and
// normalize_arcs (whose output must pass check_arc_list).

#include <gtest/gtest.h>

#include "core/arc.hpp"
#include "core/skyline.hpp"
#include "core/validate.hpp"
#include "geometry/angle.hpp"

namespace mldcs::core {
namespace {

using geom::kTwoPi;

TEST(ArcTest, SpanMidCovers) {
  const Arc a{1.0, 2.0, 7};
  EXPECT_DOUBLE_EQ(a.span(), 1.0);
  EXPECT_DOUBLE_EQ(a.mid(), 1.5);
  EXPECT_TRUE(a.covers(1.5));
  EXPECT_TRUE(a.covers(1.0));
  EXPECT_TRUE(a.covers(2.0));
  EXPECT_FALSE(a.covers(0.5));
  EXPECT_FALSE(a.covers(2.5));
}

TEST(SkylineTest, EmptySkyline) {
  const Skyline s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.arc_count(), 0u);
  EXPECT_TRUE(s.skyline_set().empty());
  EXPECT_EQ(s.arc_at(1.0), SIZE_MAX);
  EXPECT_EQ(s.disk_at(1.0), SIZE_MAX);
}

TEST(SkylineTest, WellFormedAcceptsCanonicalList) {
  // The first and last arcs may share a disk: the +x-axis split.
  const std::vector<Arc> arcs{{0.0, 2.0, 0}, {2.0, 4.0, 1}, {4.0, kTwoPi, 0}};
  EXPECT_EQ(check_arc_list(arcs, 2), "");
}

TEST(SkylineTest, WellFormedRejectsBadLists) {
  // Doesn't start at 0.
  EXPECT_NE(check_arc_list(std::vector<Arc>{{0.5, kTwoPi, 0}}, 1), "");
  // Doesn't end at 2*pi.
  EXPECT_NE(check_arc_list(std::vector<Arc>{{0.0, 3.0, 0}}, 1), "");
  // Gap between arcs.
  EXPECT_NE(check_arc_list(
                std::vector<Arc>{{0.0, 1.0, 0}, {1.5, kTwoPi, 1}}, 2),
            "");
  // Adjacent same-disk arcs (uncoalesced).
  EXPECT_NE(check_arc_list(
                std::vector<Arc>{{0.0, 1.0, 0}, {1.0, kTwoPi, 0}}, 1),
            "");
  // Empty arc.
  EXPECT_NE(check_arc_list(
                std::vector<Arc>{{0.0, 0.0, 0}, {0.0, kTwoPi, 1}}, 2),
            "");
  // Disk index out of range.
  EXPECT_NE(check_arc_list(std::vector<Arc>{{0.0, kTwoPi, 5}}, 2), "");
}

TEST(SkylineTest, SkylineSetDeduplicatesAndSorts) {
  const Skyline s({0, 0}, {{0.0, 1.0, 3}, {1.0, 2.0, 1}, {2.0, kTwoPi, 3}});
  EXPECT_EQ(s.skyline_set(), (std::vector<std::size_t>{1, 3}));
}

TEST(SkylineTest, ArcAtFindsCoveringArc) {
  const Skyline s({0, 0}, {{0.0, 2.0, 0}, {2.0, 4.0, 1}, {4.0, kTwoPi, 2}});
  EXPECT_EQ(s.arc_at(1.0), 0u);
  EXPECT_EQ(s.arc_at(3.0), 1u);
  EXPECT_EQ(s.arc_at(5.0), 2u);
  EXPECT_EQ(s.disk_at(3.0), 1u);
  // Normalization: angles outside [0, 2*pi) wrap.
  EXPECT_EQ(s.arc_at(1.0 + kTwoPi), 0u);
  EXPECT_EQ(s.arc_at(-kTwoPi + 3.0), 1u);
}

TEST(SkylineTest, ArcsPerDiskCounts) {
  const Skyline s({0, 0},
                  {{0.0, 1.0, 2}, {1.0, 2.0, 0}, {2.0, 3.0, 2}, {3.0, kTwoPi, 0}});
  const auto counts = s.arcs_per_disk();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(counts[1], (std::pair<std::size_t, std::size_t>{2, 2}));
}

TEST(NormalizeArcsTest, SortsAndSnapsFragments) {
  std::vector<Arc> frags{{3.0, kTwoPi, 1}, {0.0, 1.5, 0}, {1.5, 3.0, 1}};
  const auto out = normalize_arcs(std::move(frags));
  ASSERT_EQ(out.size(), 2u);  // the two disk-1 arcs coalesce
  EXPECT_EQ(out[0].disk, 0u);
  EXPECT_EQ(out[1].disk, 1u);
  EXPECT_EQ(check_arc_list(out, 2), "");
}

TEST(NormalizeArcsTest, DropsSlivers) {
  std::vector<Arc> frags{{0.0, 3.0, 0},
                         {3.0, 3.0 + 1e-12, 1},  // sliver
                         {3.0 + 1e-12, kTwoPi, 2}};
  const auto out = normalize_arcs(std::move(frags));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].disk, 0u);
  EXPECT_EQ(out[1].disk, 2u);
  EXPECT_EQ(check_arc_list(out, 3), "");
}

TEST(NormalizeArcsTest, CoalescesRunsOfSameDisk) {
  std::vector<Arc> frags;
  for (int k = 0; k < 10; ++k) {
    frags.push_back({k * 0.6, (k + 1) * 0.6, 4});
  }
  frags.back().end = kTwoPi;
  const auto out = normalize_arcs(std::move(frags));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].disk, 4u);
  EXPECT_DOUBLE_EQ(out[0].start, 0.0);
  EXPECT_DOUBLE_EQ(out[0].end, kTwoPi);
}

TEST(NormalizeArcsTest, EmptyInput) {
  EXPECT_TRUE(normalize_arcs({}).empty());
}

TEST(NormalizeArcsTest, OutputIsAlwaysWellFormed) {
  // Fuzz: random fragmentations must normalize to well-formed lists.
  std::uint64_t state = 12345;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Arc> frags;
    double pos = 0.0;
    while (pos < kTwoPi - 1e-6) {
      const double step =
          0.05 + 0.4 * static_cast<double>((state = state * 6364136223846793005ULL + 1) >> 40) /
                     static_cast<double>(1 << 24);
      const double end = std::min(pos + step, kTwoPi);
      frags.push_back({pos, end, (state >> 10) % 5});
      pos = end;
    }
    const auto out = normalize_arcs(std::move(frags));
    EXPECT_EQ(check_arc_list(out, 5), "") << "trial " << trial;
  }
}

}  // namespace
}  // namespace mldcs::core
