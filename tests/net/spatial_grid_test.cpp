// Tests for the uniform-grid geometry and spatial index: the candidate walk,
// filtered by exact distance, must equal a brute-force range query —
// including from positions outside the grid's fitted extent, which clamp
// into the border cells.

#include "net/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "net/disk_graph.hpp"
#include "net/dynamic_disk_graph.hpp"
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

/// The candidates within `range` of `p` (inclusive), sorted.
std::vector<NodeId> in_range(const SpatialGrid& grid,
                             std::span<const Node> nodes, geom::Vec2 p,
                             double range) {
  std::vector<NodeId> out;
  grid.for_each_candidate(p, range, [&](NodeId id) {
    if (geom::distance2(nodes[id].pos, p) <= range * range) out.push_back(id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Brute force: every node within `range` of `p` (inclusive), sorted.
std::vector<NodeId> brute_force(std::span<const Node> nodes, geom::Vec2 p,
                                double range) {
  std::vector<NodeId> out;
  for (const Node& n : nodes) {
    if (geom::distance2(n.pos, p) <= range * range) out.push_back(n.id);
  }
  return out;
}

TEST(SpatialGridTest, EmptyNodeSet) {
  const std::vector<Node> none;
  const SpatialGrid grid(none);
  EXPECT_EQ(GridGeometry(none).cell_count(), 1u);
  std::size_t visited = 0;
  grid.for_each_candidate({0, 0}, 10.0, [&](NodeId) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(SpatialGridTest, SingleNodeFoundInRange) {
  const std::vector<Node> nodes{{0, {5, 5}, 1.0}};
  const SpatialGrid grid(nodes);
  EXPECT_EQ(in_range(grid, nodes, {5.5, 5.0}, 1.0), (std::vector<NodeId>{0}));
  EXPECT_TRUE(in_range(grid, nodes, {8, 8}, 1.0).empty());
}

// The walk excludes nothing: a node querying at its own position is its own
// candidate, and the caller (DiskGraph::build's passes, DynamicDiskGraph's
// link scan) skips it by id.
TEST(SpatialGridTest, WalkIncludesTheQueryingNode) {
  const std::vector<Node> nodes{{0, {5, 5}, 1.0}, {1, {5.1, 5.0}, 1.0}};
  const SpatialGrid grid(nodes);
  std::vector<NodeId> others;
  grid.for_each_candidate(nodes[0].pos, 1.0, [&](NodeId id) {
    if (id != 0) others.push_back(id);
  });
  EXPECT_EQ(others, (std::vector<NodeId>{1}));
  EXPECT_EQ(in_range(grid, nodes, nodes[0].pos, 1.0),
            (std::vector<NodeId>{0, 1}));
}

TEST(SpatialGridTest, RangeIsInclusive) {
  const std::vector<Node> nodes{{0, {0, 0}, 1.0}, {1, {2, 0}, 1.0}};
  const SpatialGrid grid(nodes);
  // Node 1 at exactly distance 2.
  EXPECT_EQ(in_range(grid, nodes, {0, 0}, 2.0), (std::vector<NodeId>{0, 1}));
}

TEST(SpatialGridTest, CandidatesAreSupersetOfMatches) {
  sim::Xoshiro256 rng(9);
  const auto nodes = random_nodes(rng, 200, 12.5);
  const SpatialGrid grid(nodes);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Vec2 p{rng.uniform(0, 12.5), rng.uniform(0, 12.5)};
    std::vector<NodeId> cand;
    grid.for_each_candidate(p, 1.5, [&cand](NodeId id) { cand.push_back(id); });
    std::sort(cand.begin(), cand.end());
    EXPECT_EQ(std::adjacent_find(cand.begin(), cand.end()), cand.end())
        << "a candidate was visited twice";
    for (const NodeId id : brute_force(nodes, p, 1.5)) {
      EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(), id));
    }
  }
}

class SpatialGridPropertyTest : public ::testing::TestWithParam<int> {};

// Query points range over a box 3 units wider than the deployment on every
// side, so many fall outside the fitted extent and clamp into border cells.
TEST_P(SpatialGridPropertyTest, MatchesBruteForce) {
  sim::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  const auto nodes = random_nodes(rng, 300, 12.5);
  const SpatialGrid grid(nodes);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Vec2 p{rng.uniform(-3, 15.5), rng.uniform(-3, 15.5)};
    const double range = rng.uniform(0.1, 4.0);
    EXPECT_EQ(in_range(grid, nodes, p, range), brute_force(nodes, p, range))
        << "p=" << p << " range=" << range;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialGridPropertyTest, ::testing::Range(0, 5));

TEST(SpatialGridTest, DegenerateCellSizeFallsBack) {
  // Zero radii would give zero-width cells; the side is floored instead.
  const std::vector<Node> nodes{{0, {1, 1}, 0.0}, {1, {1, 1 + 1.5e-6}, 0.0}};
  const SpatialGrid grid(nodes);
  EXPECT_EQ(GridGeometry(nodes).cell_size(), 1e-6);
  EXPECT_EQ(in_range(grid, nodes, {1, 1}, 0.5), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(in_range(grid, nodes, {1, 1}, 1e-7), (std::vector<NodeId>{0}));
}

TEST(SpatialGridTest, AllNodesAtSamePoint) {
  std::vector<Node> nodes;
  for (NodeId i = 0; i < 10; ++i) nodes.push_back({i, {3, 3}, 1.0});
  const SpatialGrid grid(nodes);
  EXPECT_EQ(GridGeometry(nodes).cell_count(), 1u);
  EXPECT_EQ(in_range(grid, nodes, {3, 3}, 0.1).size(), 10u);
}

// The geometry alone: cell side, clamping and the walk over touched cells.
TEST(GridGeometryTest, ClampsOutsidePositionsIntoBorderCells) {
  const std::vector<Node> nodes{{0, {0, 0}, 2.0}, {1, {10, 4}, 1.0}};
  const GridGeometry geo(nodes);
  EXPECT_EQ(geo.cell_size(), 2.0);
  EXPECT_EQ(geo.cell_count(), 6u * 3u);  // floor(10/2)+1 by floor(4/2)+1
  EXPECT_EQ(geo.cell_of({0, 0}), 0u);
  EXPECT_EQ(geo.cell_of({-5, -5}), 0u);
  EXPECT_EQ(geo.cell_of({3, 0}), 1u);
  EXPECT_EQ(geo.cell_of({10, 4}), 17u);
  EXPECT_EQ(geo.cell_of({100, 100}), 17u);
  EXPECT_EQ(geo.cell_of({3, 100}), 13u);

  std::vector<std::size_t> cells;
  geo.for_each_cell({3, 1}, 1.5, [&](std::size_t c) { cells.push_back(c); });
  EXPECT_EQ(cells, (std::vector<std::size_t>{0, 1, 2, 6, 7, 8}));
  cells.clear();
  geo.for_each_cell({-50, -50}, 1.0,
                    [&](std::size_t c) { cells.push_back(c); });
  EXPECT_EQ(cells, (std::vector<std::size_t>{0}));
}

// Zero radii over a wide extent: cells of the floored side would number
// (extent / 1e-6)^2, so the side grows until the grid has at most
// max(4n, 1024) cells (checked before anything is built), and neither
// graph type links the nodes.
TEST(GridGeometryTest, ZeroRadiiOverAWideExtentBoundTheCellCount) {
  for (const double apart : {12.5, 1e6}) {
    const std::vector<Node> nodes{{0, {0, 0}, 0.0},
                                  {1, {apart, apart}, 0.0}};
    ASSERT_LE(GridGeometry(nodes).cell_count(), 1024u) << apart;
    const DiskGraph built = DiskGraph::build(nodes);
    const DynamicDiskGraph dynamic{std::vector<Node>(nodes)};
    EXPECT_EQ(built.edge_count(), 0u) << apart;
    EXPECT_EQ(dynamic.edge_count(), 0u) << apart;
    for (const NodeId u : {0u, 1u}) {
      EXPECT_TRUE(built.neighbors(u).empty()) << apart;
      EXPECT_TRUE(dynamic.neighbors(u).empty()) << apart;
    }
  }
}

}  // namespace
}  // namespace mldcs::net
