// Tests for the incrementally maintained disk graph: edge diffs and the
// mutable grid must reproduce DiskGraph::build exactly at every step.

#include "net/dynamic_disk_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"

namespace mldcs::net {
namespace {

DeploymentParams small_deploy() {
  DeploymentParams p;
  p.target_avg_degree = 6;
  p.model = RadiusModel::kUniform;
  return p;
}

void expect_matches_rebuild(const DynamicDiskGraph& dyn, const char* where) {
  std::vector<Node> copy(dyn.nodes().begin(), dyn.nodes().end());
  const DiskGraph fresh = DiskGraph::build(std::move(copy));
  ASSERT_EQ(dyn.size(), fresh.size()) << where;
  EXPECT_EQ(dyn.edge_count(), fresh.edge_count()) << where;
  for (NodeId u = 0; u < dyn.size(); ++u) {
    const auto got = dyn.neighbors(u);
    const auto want = fresh.neighbors(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << where << ": adjacency mismatch at node " << u;
  }
}

TEST(DynamicDiskGraphTest, InitialTopologyMatchesDiskGraphBuild) {
  sim::Xoshiro256 rng(11);
  const std::vector<Node> nodes = generate_deployment(small_deploy(), rng);
  const DynamicDiskGraph dyn{std::vector<Node>(nodes)};
  expect_matches_rebuild(dyn, "initial");
}

TEST(DynamicDiskGraphTest, NoMotionYieldsEmptyDelta) {
  sim::Xoshiro256 rng(12);
  std::vector<Node> nodes = generate_deployment(small_deploy(), rng);
  DynamicDiskGraph dyn{std::vector<Node>(nodes)};
  const auto& delta = dyn.apply(nodes);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.edges_added, 0u);
  EXPECT_EQ(delta.edges_removed, 0u);
}

TEST(DynamicDiskGraphTest, SingleMoveReportsDeltaAndPatchesEdges) {
  // Three nodes on a line, unit radii: 0-1 and 1-2 linked, 0-2 not.
  std::vector<Node> nodes{
      {0, {0.0, 0.0}, 1.0}, {1, {0.9, 0.0}, 1.0}, {2, {1.8, 0.0}, 1.0}};
  DynamicDiskGraph dyn{std::vector<Node>(nodes)};
  EXPECT_EQ(dyn.edge_count(), 2u);

  // Move node 2 out of node 1's range: edge (1,2) is removed.
  nodes[2].pos = {3.5, 0.0};
  const auto& delta = dyn.apply(nodes);
  EXPECT_EQ(delta.moved, (std::vector<NodeId>{2}));
  EXPECT_EQ(delta.link_changed, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(delta.edges_added, 0u);
  EXPECT_EQ(delta.edges_removed, 1u);
  EXPECT_EQ(dyn.edge_count(), 1u);
  EXPECT_TRUE(dyn.linked(0, 1));
  EXPECT_TRUE(dyn.neighbors(2).empty());
  expect_matches_rebuild(dyn, "after removal");

  // Move it back next to node 0: edge (0,2) appears, (1,2) reappears.
  nodes[2].pos = {0.5, 0.5};
  const auto& delta2 = dyn.apply(nodes);
  EXPECT_EQ(delta2.moved, (std::vector<NodeId>{2}));
  EXPECT_EQ(delta2.link_changed, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(delta2.edges_added, 2u);
  EXPECT_EQ(delta2.edges_removed, 0u);
  expect_matches_rebuild(dyn, "after re-add");
}

TEST(DynamicDiskGraphTest, SimultaneousMovesCountEachFlippedEdgeOnce) {
  // Both endpoints of the only edge move apart in the same step.
  std::vector<Node> nodes{{0, {0.0, 0.0}, 1.0}, {1, {0.5, 0.0}, 1.0}};
  DynamicDiskGraph dyn{std::vector<Node>(nodes)};
  EXPECT_EQ(dyn.edge_count(), 1u);
  nodes[0].pos = {-2.0, 0.0};
  nodes[1].pos = {2.0, 0.0};
  const auto& delta = dyn.apply(nodes);
  EXPECT_EQ(delta.edges_removed, 1u);
  EXPECT_EQ(delta.link_changed, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(dyn.edge_count(), 0u);
  expect_matches_rebuild(dyn, "after simultaneous move");
}

// Two movers jump into a dense cluster together and out again: each gains
// (then loses) 151 neighbours in one step, more added ids than the
// apply's rank count orders, so the comparison-sort path runs too.
TEST(DynamicDiskGraphTest, JoiningADenseClusterMatchesRebuild) {
  sim::Xoshiro256 rng(21);
  std::vector<Node> nodes;
  for (NodeId i = 0; i < 150; ++i) {
    nodes.push_back({i,
                     {10.0 + rng.uniform(-0.5, 0.5),
                      10.0 + rng.uniform(-0.5, 0.5)},
                     1.5});
  }
  nodes.push_back({150, {0.0, 0.0}, 2.0});
  nodes.push_back({151, {20.0, 20.0}, 2.0});
  DynamicDiskGraph dyn{std::vector<Node>(nodes)};
  ASSERT_EQ(dyn.degree(150) + dyn.degree(151), 0u);

  nodes[150].pos = {10.1, 10.0};
  nodes[151].pos = {9.9, 10.0};
  const auto& in = dyn.apply(nodes);
  EXPECT_EQ(in.edges_added, 2u * 150u + 1u);
  EXPECT_EQ(in.edges_removed, 0u);
  EXPECT_EQ(in.link_changed.size(), nodes.size());
  EXPECT_EQ(dyn.degree(150), 151u);
  expect_matches_rebuild(dyn, "joined the cluster");

  nodes[150].pos = {0.0, 0.0};
  nodes[151].pos = {20.0, 20.0};
  const auto& out = dyn.apply(nodes);
  EXPECT_EQ(out.edges_added, 0u);
  EXPECT_EQ(out.edges_removed, 2u * 150u + 1u);
  EXPECT_EQ(out.link_changed.size(), nodes.size());
  expect_matches_rebuild(dyn, "left the cluster");
}

TEST(DynamicDiskGraphTest, ToDiskGraphReflectsIncrementalState) {
  sim::Xoshiro256 rng(13);
  std::vector<Node> nodes = generate_deployment(small_deploy(), rng);
  DynamicDiskGraph dyn{std::vector<Node>(nodes)};
  // Shuffle a few nodes around, then materialize.
  for (std::size_t i = 0; i < nodes.size(); i += 7) {
    nodes[i].pos = {rng.uniform(0.0, 12.5), rng.uniform(0.0, 12.5)};
  }
  dyn.apply(nodes);
  const DiskGraph snap = dyn.to_disk_graph();
  ASSERT_EQ(snap.size(), dyn.size());
  EXPECT_EQ(snap.edge_count(), dyn.edge_count());
  for (NodeId u = 0; u < dyn.size(); ++u) {
    const auto got = snap.neighbors(u);
    const auto want = dyn.neighbors(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  }
  expect_matches_rebuild(dyn, "materialized");
}

TEST(DynamicDiskGraphTest, ConstructorRejectsNonFiniteInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Node> bad[] = {
      {{0, {0.0, 0.0}, 1.0}, {1, {nan, 0.0}, 1.0}},
      {{0, {0.0, 0.0}, 1.0}, {1, {0.5, inf}, 1.0}},
      {{0, {0.0, 0.0}, nan}, {1, {0.5, 0.0}, 1.0}},
      {{0, {0.0, 0.0}, 1.0}, {1, {0.5, 0.0}, inf}},
  };
  for (const std::vector<Node>& nodes : bad) {
    EXPECT_THROW(DynamicDiskGraph{std::vector<Node>(nodes)},
                 std::invalid_argument);
    // Region mode (the shard substrate of ShardedEngine) too.
    EXPECT_THROW((DynamicDiskGraph{std::vector<Node>(nodes),
                                   geom::BBox{{-1.0, -1.0}, {1.0, 1.0}}}),
                 std::invalid_argument);
  }
}

TEST(DynamicDiskGraphTest, ApplyRejectsNonFiniteMoverBeforeAnyChange) {
  sim::Xoshiro256 rng(13);
  std::vector<Node> nodes = generate_deployment(small_deploy(), rng);
  ASSERT_GT(nodes.size(), 4u);
  DynamicDiskGraph dyn{std::vector<Node>(nodes)};
  std::vector<Node> moved = nodes;
  moved[1].pos.x += 0.5;
  dyn.apply(moved);
  const std::vector<NodeId> last(dyn.last_delta().moved);
  const std::size_t edges = dyn.edge_count();

  // Scanning and hinted forms, NaN and infinite positions: each throws and
  // leaves the graph — positions, adjacency, last delta — as it was.
  const auto expect_unchanged = [&] {
    EXPECT_EQ(dyn.last_delta().moved, last);
    EXPECT_EQ(dyn.edge_count(), edges);
    for (NodeId u = 0; u < dyn.size(); ++u) {
      ASSERT_EQ(dyn.node(u).pos, moved[u].pos) << u;
    }
    expect_matches_rebuild(dyn, "after rejected apply");
  };
  std::vector<Node> bad = moved;
  bad[2].pos.x += 0.3;  // a valid mover in the same step
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    bad[3].pos.y = v;
    EXPECT_THROW(dyn.apply(bad), std::invalid_argument);
    const std::vector<NodeId> hint{2, 3};
    EXPECT_THROW(dyn.apply(bad, hint), std::invalid_argument);
    expect_unchanged();
  }
  // A hinted id past the last node, after a valid mover in the same hint.
  {
    std::vector<Node> valid = moved;
    valid[2].pos.x += 0.3;
    const std::vector<NodeId> hint{2, static_cast<NodeId>(dyn.size())};
    EXPECT_THROW(dyn.apply(valid, hint), std::invalid_argument);
    expect_unchanged();
  }

  // A valid apply afterwards still matches a from-scratch build.
  bad[3].pos = moved[3].pos;
  bad[3].pos.x -= 0.4;
  dyn.apply(bad, std::vector<NodeId>{2, 3});
  expect_matches_rebuild(dyn, "valid apply after rejections");
  dyn.apply(nodes);
  expect_matches_rebuild(dyn, "scanning apply after rejections");
}

// A hint may name nodes that did not move (or name one twice); the delta
// names the real movers only, so downstream dirty rules see no phantom
// motion.
TEST(DynamicDiskGraphTest, HintedUnmovedIdsAreDropped) {
  sim::Xoshiro256 rng(14);
  std::vector<Node> nodes = generate_deployment(small_deploy(), rng);
  ASSERT_GT(nodes.size(), 8u);
  DynamicDiskGraph dyn{std::vector<Node>(nodes)};
  nodes[4].pos.x += 0.25;
  const std::vector<NodeId> hint{7, 4, 1, 4};
  const auto& d = dyn.apply(nodes, hint);
  EXPECT_EQ(d.moved, (std::vector<NodeId>{4}));
  expect_matches_rebuild(dyn, "after hinted apply");
  EXPECT_TRUE(dyn.apply(nodes, hint).empty());
}

/// Long differential run: random-waypoint motion across regimes, the
/// incremental graph compared with a from-scratch build after every step.
TEST(DynamicDiskGraphTest, IncrementalMatchesRebuildUnderMobility) {
  struct Regime {
    const char* name;
    WaypointParams wp;
  };
  std::vector<Regime> regimes(3);
  regimes[0].name = "default";
  regimes[1].name = "pause_heavy";
  regimes[1].wp.v_min = 0.02;
  regimes[1].wp.v_max = 0.1;
  regimes[1].wp.pause = 10.0;
  regimes[1].wp.max_leg = 1.0;
  regimes[1].wp.steady_state_init = true;
  regimes[2].name = "high_speed";
  regimes[2].wp.v_min = 0.5;
  regimes[2].wp.v_max = 2.0;
  regimes[2].wp.pause = 0.0;

  for (const Regime& regime : regimes) {
    for (const std::uint64_t seed : {21u, 22u}) {
      sim::Xoshiro256 rng(seed);
      MobileNetwork mobile(small_deploy(), regime.wp, rng);
      DynamicDiskGraph dyn{std::vector<Node>(
          mobile.nodes().begin(), mobile.nodes().end())};
      for (int t = 0; t < 25; ++t) {
        mobile.step(1.0, rng);
        // Alternate the hinted and scanning apply() forms.
        if (t % 2 == 0) {
          dyn.apply(mobile.nodes(), mobile.moved_last_step());
        } else {
          dyn.apply(mobile.nodes());
        }
        expect_matches_rebuild(dyn, regime.name);
      }
    }
  }
}

}  // namespace
}  // namespace mldcs::net
