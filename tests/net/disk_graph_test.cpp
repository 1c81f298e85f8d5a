// Tests for the bidirectional disk graph: link rule, adjacency symmetry,
// CSR integrity, 2-hop extraction, reachability.

#include "net/disk_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/rng.hpp"

namespace mldcs::net {
namespace {

TEST(NodeTest, LinkRuleUsesMinimumRadius) {
  const Node a{0, {0, 0}, 2.0};
  const Node b{1, {1.5, 0}, 1.0};
  // distance 1.5 > min(2,1) = 1 -> not linked, though a covers b.
  EXPECT_FALSE(a.linked_to(b));
  EXPECT_FALSE(b.linked_to(a));
  EXPECT_TRUE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
}

TEST(NodeTest, LinkIsInclusiveAtExactRange) {
  const Node a{0, {0, 0}, 1.0};
  const Node b{1, {1.0, 0}, 1.0};
  EXPECT_TRUE(a.linked_to(b));
}

TEST(DiskGraphTest, EmptyGraph) {
  const DiskGraph g = DiskGraph::build({});
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.connected());
}

TEST(DiskGraphTest, TwoLinkedNodes) {
  const DiskGraph g = DiskGraph::build({{0, {0, 0}, 1.0}, {0, {0.5, 0}, 1.0}});
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.linked(0, 1));
  EXPECT_TRUE(g.linked(1, 0));
  EXPECT_TRUE(g.connected());
}

TEST(DiskGraphTest, IdsAreReassignedToIndices) {
  const DiskGraph g =
      DiskGraph::build({{42, {0, 0}, 1.0}, {99, {0.5, 0}, 1.0}});
  EXPECT_EQ(g.node(0).id, 0u);
  EXPECT_EQ(g.node(1).id, 1u);
}

TEST(DiskGraphTest, AdjacencyIsSymmetricAndSorted) {
  sim::Xoshiro256 rng(17);
  std::vector<Node> nodes;
  for (NodeId i = 0; i < 150; ++i) {
    nodes.push_back({i, {rng.uniform(0, 10), rng.uniform(0, 10)},
                     rng.uniform(1.0, 2.0)});
  }
  const DiskGraph g = DiskGraph::build(std::move(nodes));
  for (NodeId u = 0; u < g.size(); ++u) {
    const auto nb = g.neighbors(u);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (NodeId v : nb) {
      EXPECT_NE(v, u) << "self-loop";
      EXPECT_TRUE(g.linked(v, u)) << "asymmetric edge " << u << "-" << v;
    }
  }
}

TEST(DiskGraphTest, AdjacencyMatchesBruteForce) {
  sim::Xoshiro256 rng(23);
  std::vector<Node> nodes;
  for (NodeId i = 0; i < 120; ++i) {
    nodes.push_back({i, {rng.uniform(0, 8), rng.uniform(0, 8)},
                     rng.uniform(0.5, 2.5)});
  }
  const std::vector<Node> copy = nodes;
  const DiskGraph g = DiskGraph::build(std::move(nodes));
  for (NodeId u = 0; u < g.size(); ++u) {
    std::vector<NodeId> expected;
    for (NodeId v = 0; v < copy.size(); ++v) {
      if (v != u && copy[u].linked_to(copy[v])) expected.push_back(v);
    }
    const auto nb = g.neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(nb.begin(), nb.end()), expected)
        << "node " << u;
  }
}

TEST(DiskGraphTest, TwoHopNeighborsExcludeSelfAndOneHop) {
  // Path: 0 - 1 - 2 - 3 (unit radii, spacing 1).
  const DiskGraph g = DiskGraph::build({{0, {0, 0}, 1.0},
                                        {1, {1, 0}, 1.0},
                                        {2, {2, 0}, 1.0},
                                        {3, {3, 0}, 1.0}});
  EXPECT_EQ(g.two_hop_neighbors(0), (std::vector<NodeId>{2}));
  EXPECT_EQ(g.two_hop_neighbors(1), (std::vector<NodeId>{3}));
  EXPECT_EQ(g.two_hop_neighbors(2), (std::vector<NodeId>{0}));
}

TEST(DiskGraphTest, TwoHopOfIsolatedNodeIsEmpty) {
  const DiskGraph g =
      DiskGraph::build({{0, {0, 0}, 1.0}, {1, {10, 10}, 1.0}});
  EXPECT_TRUE(g.two_hop_neighbors(0).empty());
  EXPECT_FALSE(g.connected());
}

TEST(DiskGraphTest, ReachabilityAndConnectivity) {
  // Two components: {0,1,2} chain and {3,4} pair.
  const DiskGraph g = DiskGraph::build({{0, {0, 0}, 1.0},
                                        {1, {1, 0}, 1.0},
                                        {2, {2, 0}, 1.0},
                                        {3, {8, 8}, 1.0},
                                        {4, {8.5, 8}, 1.0}});
  EXPECT_EQ(g.reachable_from(0), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(g.reachable_from(4), (std::vector<NodeId>{3, 4}));
  EXPECT_FALSE(g.connected());
}

TEST(DiskGraphTest, AverageDegree) {
  const DiskGraph g = DiskGraph::build({{0, {0, 0}, 1.0},
                                        {1, {0.5, 0}, 1.0},
                                        {2, {1.0, 0}, 1.0}});
  // Edges: 0-1, 1-2, 0-2 (distance 1 <= 1).  Average degree = 2.
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(DiskGraphTest, HeterogeneousAsymmetricCoverageDoesNotLink) {
  // The Figure 5.6 ingredient: big node covers small one, no link.
  const DiskGraph g = DiskGraph::build({{0, {0, 0}, 5.0}, {1, {2, 0}, 1.0}});
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.node(0).covers(g.node(1)));
}

TEST(DiskGraphTest, NonFinitePositionOrRadiusThrowsNamingTheNode) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Node bad[] = {{0, {nan, 0}, 1.0},
                      {0, {0, inf}, 1.0},
                      {0, {0, 0}, nan},
                      {0, {0, 0}, inf}};
  for (const Node& b : bad) {
    // The bad node sits at index 1, behind a valid one.
    try {
      (void)DiskGraph::build({{0, {0, 0}, 1.0}, b});
      ADD_FAILURE() << "build accepted a non-finite node";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace mldcs::net
