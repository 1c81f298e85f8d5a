// Tests for the uniform-grid spatial index, cross-validated against brute
// force range queries.

#include "net/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/rng.hpp"

namespace mldcs::net {
namespace {

std::vector<Node> random_nodes(sim::Xoshiro256& rng, std::size_t n,
                               double side) {
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(Node{static_cast<NodeId>(i),
                         {rng.uniform(0, side), rng.uniform(0, side)},
                         rng.uniform(1.0, 2.0)});
  }
  return nodes;
}

TEST(SpatialGridTest, EmptyNodeSet) {
  const std::vector<Node> none;
  const SpatialGrid grid(none, 1.0);
  std::vector<NodeId> out;
  grid.query({0, 0}, 10.0, kNoNode, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpatialGridTest, SingleNodeFoundInRange) {
  const std::vector<Node> nodes{{0, {5, 5}, 1.0}};
  const SpatialGrid grid(nodes, 1.0);
  std::vector<NodeId> out;
  grid.query({5.5, 5.0}, 1.0, kNoNode, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
  out.clear();
  grid.query({8, 8}, 1.0, kNoNode, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpatialGridTest, ExclusionParameterWorks) {
  const std::vector<Node> nodes{{0, {5, 5}, 1.0}, {1, {5.1, 5.0}, 1.0}};
  const SpatialGrid grid(nodes, 1.0);
  std::vector<NodeId> out;
  grid.query({5, 5}, 1.0, 0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);
}

TEST(SpatialGridTest, RangeIsInclusive) {
  const std::vector<Node> nodes{{0, {0, 0}, 1.0}, {1, {2, 0}, 1.0}};
  const SpatialGrid grid(nodes, 1.0);
  std::vector<NodeId> out;
  grid.query({0, 0}, 2.0, 0, out);  // node 1 at exactly distance 2
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);
}

TEST(SpatialGridTest, CandidatesAreSupersetOfMatches) {
  sim::Xoshiro256 rng(9);
  const auto nodes = random_nodes(rng, 200, 12.5);
  const SpatialGrid grid(nodes, 2.0);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Vec2 p{rng.uniform(0, 12.5), rng.uniform(0, 12.5)};
    std::vector<NodeId> cand;
    grid.for_each_candidate(p, 1.5, [&cand](NodeId id) { cand.push_back(id); });
    std::sort(cand.begin(), cand.end());
    for (const Node& n : nodes) {  // brute force: every match is a candidate
      if (geom::distance2(n.pos, p) <= 1.5 * 1.5) {
        EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(), n.id));
      }
    }
  }
}

class SpatialGridPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SpatialGridPropertyTest, MatchesBruteForce) {
  sim::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  const auto nodes = random_nodes(rng, 300, 12.5);
  const SpatialGrid grid(nodes, 2.0);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Vec2 p{rng.uniform(-1, 13.5), rng.uniform(-1, 13.5)};
    const double range = rng.uniform(0.1, 3.0);
    std::vector<NodeId> got;
    grid.query(p, range, kNoNode, got);
    std::sort(got.begin(), got.end());

    std::vector<NodeId> expected;
    for (const Node& n : nodes) {
      if (geom::distance2(n.pos, p) <= range * range) expected.push_back(n.id);
    }
    EXPECT_EQ(got, expected) << "p=" << p << " range=" << range;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialGridPropertyTest, ::testing::Range(0, 5));

TEST(SpatialGridTest, DegenerateCellSizeFallsBack) {
  const std::vector<Node> nodes{{0, {1, 1}, 1.0}};
  const SpatialGrid grid(nodes, 0.0);  // invalid -> clamped internally
  EXPECT_GT(grid.cell_size(), 0.0);
  std::vector<NodeId> out;
  grid.query({1, 1}, 0.5, kNoNode, out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(SpatialGridTest, AllNodesAtSamePoint) {
  std::vector<Node> nodes;
  for (NodeId i = 0; i < 10; ++i) nodes.push_back({i, {3, 3}, 1.0});
  const SpatialGrid grid(nodes, 1.0);
  std::vector<NodeId> out;
  grid.query({3, 3}, 0.1, 4, out);
  EXPECT_EQ(out.size(), 9u);  // everyone but the excluded id
}

}  // namespace
}  // namespace mldcs::net
