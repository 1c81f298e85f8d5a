// Whole-plane DynamicDiskGraph::apply on the ~1000-node paper deployment,
// where steps with kParallelApplyMovers or more movers run the per-mover
// diff on sim::default_pool(), checked step by step against two
// consecutive from-scratch DiskGraph::build calls; and the constructor's
// seed from a pooled DiskGraph::build (DiskGraph::kParallelBuildNodes
// nodes or more, so the paper deployment's seed is pooled too).
//
// tests/CMakeLists.txt registers this binary four times: at the host's
// default pool size, and with MLDCS_THREADS=1, 2 and 3.  default_pool() reads
// the variable once per process, so each pool size needs its own process;
// all of them must pass the same oracle, which is what makes the parallel
// path's output equal to the serial one's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "net/dynamic_disk_graph.hpp"
#include "net/mobility.hpp"
#include "net/spatial_grid.hpp"
#include "net/topology.hpp"
#include "obs/event_log.hpp"
#include "obs/telemetry.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::net {
namespace {

/// The paper's heterogeneous deployment: ~1000 nodes, radii U[1,2],
/// average degree 36.8.
DeploymentParams paper_deploy() {
  DeploymentParams p;
  p.model = RadiusModel::kUniform;
  p.target_avg_degree = 36.8;
  return p;
}

using Edge = std::pair<NodeId, NodeId>;

std::set<Edge> edges_of(const DiskGraph& g) {
  std::set<Edge> out;
  for (NodeId u = 0; u < g.size(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) out.emplace(u, v);
    }
  }
  return out;
}

/// Graph-level telemetry and the pool's task count, read before a step.
struct Counters {
  std::uint64_t edges_added;
  std::uint64_t edges_removed;
  std::uint64_t pool_tasks;

  static Counters read() {
    obs::Registry& r = obs::registry();
    return {r.counter("graph.edges_added").value(),
            r.counter("graph.edges_removed").value(),
            r.counter("pool.tasks_executed").value()};
  }
};

/// Drives one DynamicDiskGraph and checks every step against the delta of
/// two consecutive builds.  Counts the steps whose diff ran on pool workers
/// (as seen through pool.tasks_executed).
class Oracle {
 public:
  explicit Oracle(const std::vector<Node>& nodes)
      : dyn_(std::vector<Node>(nodes)), prev_(DiskGraph::build(nodes)) {}

  /// The seeded graph equals the build of the same nodes, list by list.
  void expect_seed_matches_build() const {
    ASSERT_EQ(dyn_.edge_count(), prev_.edge_count());
    for (NodeId u = 0; u < prev_.size(); ++u) {
      const auto got = dyn_.neighbors(u);
      const auto want = prev_.neighbors(u);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "seeded adjacency of node " << u;
    }
  }

  void step(const std::vector<Node>& current, std::span<const NodeId> hint,
            bool hinted, const char* where) {
    const Counters before = Counters::read();
    const DynamicDiskGraph::StepDelta& d =
        hinted ? dyn_.apply(current, hint) : dyn_.apply(current);
    const Counters after = Counters::read();
    const DiskGraph fresh = DiskGraph::build(current);

    // Adjacency: every list equals the rebuild's.
    ASSERT_EQ(dyn_.edge_count(), fresh.edge_count()) << where;
    for (NodeId u = 0; u < fresh.size(); ++u) {
      const auto got = dyn_.neighbors(u);
      const auto want = fresh.neighbors(u);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << where << ": adjacency of node " << u;
    }

    // The delta: movers, flipped-edge endpoints and flip counts.
    std::vector<NodeId> moved;
    for (NodeId u = 0; u < current.size(); ++u) {
      if (current[u].pos != prev_.node(u).pos) moved.push_back(u);
    }
    const std::set<Edge> old_edges = edges_of(prev_);
    const std::set<Edge> new_edges = edges_of(fresh);
    std::size_t added = 0;
    std::size_t removed = 0;
    std::set<NodeId> changed;
    for (const Edge& e : new_edges) {
      if (old_edges.count(e) == 0) {
        ++added;
        changed.insert({e.first, e.second});
      }
    }
    for (const Edge& e : old_edges) {
      if (new_edges.count(e) == 0) {
        ++removed;
        changed.insert({e.first, e.second});
      }
    }
    const std::vector<NodeId> want_changed(changed.begin(), changed.end());
    EXPECT_EQ(d.moved, moved) << where;
    EXPECT_EQ(d.link_changed, want_changed) << where;
    EXPECT_EQ(d.edges_added, added) << where;
    EXPECT_EQ(d.edges_removed, removed) << where;

    // The kStep event and the graph.* counters carry the same numbers.
    EXPECT_EQ(after.edges_added - before.edges_added, added) << where;
    EXPECT_EQ(after.edges_removed - before.edges_removed, removed) << where;
    if (after.pool_tasks != before.pool_tasks) ++pooled_steps_;
    const std::vector<obs::Event> events = obs::events_snapshot();
    ASSERT_FALSE(events.empty()) << where;
    const obs::Event& e = events.back();
    EXPECT_EQ(e.id, d.event_id) << where;
    EXPECT_EQ(e.type, obs::EventType::kStep) << where;
    EXPECT_EQ(e.a, moved.size()) << where;
    EXPECT_EQ(e.b, changed.size()) << where;
    EXPECT_EQ(e.parent, obs::kNoEvent) << where;
    EXPECT_EQ(e.value, dyn_.step_count()) << where;
    prev_ = fresh;
  }

  [[nodiscard]] std::size_t pooled_steps() const { return pooled_steps_; }
  [[nodiscard]] const DynamicDiskGraph& graph() const { return dyn_; }

 private:
  DynamicDiskGraph dyn_;
  DiskGraph prev_;
  std::size_t pooled_steps_ = 0;
};

class ParallelApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::events_clear();
    obs::events_start();
  }
  void TearDown() override {
    obs::events_stop();
    obs::events_clear();
  }

  /// With more than one worker, a step over the threshold must actually
  /// have reached the pool — otherwise this file tests the serial path
  /// twice.
  static void expect_pool_used(const Oracle& oracle, const char* where) {
    if (sim::default_pool().size() > 1) {
      EXPECT_GT(oracle.pooled_steps(), 0u) << where;
    }
  }
};

TEST_F(ParallelApplyTest, MatchesConsecutiveRebuildsAcrossRegimes) {
  struct Regime {
    const char* name;
    WaypointParams wp;
    bool pooled;  ///< most steps have >= kParallelApplyMovers movers
  };
  // The perf_suite mobility_steady_state regimes.
  std::vector<Regime> regimes(4);
  regimes[0].name = "quasi_static";
  regimes[0].wp.v_min = 0.02;
  regimes[0].wp.v_max = 0.1;
  regimes[0].wp.pause = 2000.0;
  regimes[0].wp.max_leg = 1.0;
  regimes[0].wp.steady_state_init = true;
  regimes[0].pooled = false;
  regimes[1].name = "low_speed";
  regimes[1].wp.v_min = 0.02;
  regimes[1].wp.v_max = 0.1;
  regimes[1].wp.pause = 2.0;
  regimes[1].wp.steady_state_init = true;
  regimes[1].pooled = true;
  regimes[2].name = "moderate";
  regimes[2].wp.v_min = 0.1;
  regimes[2].wp.v_max = 0.5;
  regimes[2].wp.pause = 2.0;
  regimes[2].pooled = true;
  regimes[3].name = "high_speed";
  regimes[3].wp.v_min = 0.5;
  regimes[3].wp.v_max = 2.0;
  regimes[3].wp.pause = 0.0;
  regimes[3].pooled = true;

  for (const Regime& regime : regimes) {
    sim::Xoshiro256 rng(0x5EEDC0DEULL);
    MobileNetwork mobile(paper_deploy(), regime.wp, rng);
    Oracle oracle(mobile.nodes());
    std::size_t big_steps = 0;
    for (int t = 0; t < 30; ++t) {
      mobile.step(1.0, rng);
      const std::size_t movers = mobile.moved_last_step().size();
      if (movers >= DynamicDiskGraph::kParallelApplyMovers) ++big_steps;
      // Alternate the hinted and scanning apply() forms.
      oracle.step(mobile.nodes(), mobile.moved_last_step(), t % 2 == 0,
                  regime.name);
      if (HasFatalFailure()) return;
    }
    if (regime.pooled) {
      EXPECT_GT(big_steps, 20u) << regime.name;
      expect_pool_used(oracle, regime.name);
    } else {
      EXPECT_EQ(big_steps, 0u) << regime.name;
    }
  }
}

// Coincident duplicates: stacked nodes, equal and unequal radii, movers
// landing exactly on another node.  A flip's endpoints then share a
// position, and both copies of a stack move in the same step.
TEST_F(ParallelApplyTest, MatchesConsecutiveRebuildsWithCoincidentNodes) {
  sim::Xoshiro256 rng(77);
  const DeploymentParams p = paper_deploy();
  std::vector<Node> nodes = generate_deployment(p, rng);
  const std::size_t base = nodes.size();
  for (std::size_t i = 0; i < 64; ++i) {
    Node copy = nodes[i * 7];
    if (i % 2 == 1) copy.radius = 1.0 + 0.5 * copy.radius / 2.0;
    nodes.push_back(copy);
  }
  Oracle oracle(nodes);
  std::vector<NodeId> hint;
  for (int t = 0; t < 30; ++t) {
    hint.clear();
    for (NodeId u = 0; u < base; ++u) {
      if (rng.uniform(0.0, 1.0) < 0.6) {
        const geom::Vec2 old = nodes[u].pos;
        const double dx = rng.uniform(-0.5, 0.5);
        const double dy = rng.uniform(-0.5, 0.5);
        nodes[u].pos.x = std::clamp(old.x + dx, 0.0, p.side);
        nodes[u].pos.y = std::clamp(old.y + dy, 0.0, p.side);
        if (nodes[u].pos != old) hint.push_back(u);
      }
    }
    // Every duplicate follows its original (the stack moves together) or,
    // on odd steps, lands on a random other node.
    for (std::size_t i = 0; i < 64; ++i) {
      const NodeId dup = static_cast<NodeId>(base + i);
      NodeId target = static_cast<NodeId>(i * 7);
      if (t % 2 == 1) target = static_cast<NodeId>(rng.uniform_int(base));
      if (nodes[dup].pos != nodes[target].pos) {
        nodes[dup].pos = nodes[target].pos;
        hint.push_back(dup);
      }
    }
    ASSERT_GE(hint.size(), DynamicDiskGraph::kParallelApplyMovers);
    oracle.step(nodes, hint, t % 3 != 0, "coincident");
    if (HasFatalFailure()) return;
  }
  expect_pool_used(oracle, "coincident");
}

// A bucket holds a copy of each resident's position and radius, so phase 1
// must rewrite a mover's copy even when its cell does not change; a stale
// copy shows up in the lists of the movers that walk past it.  Planted: two
// movers that stay in one cell while their link flips every step, and one
// that leaves the fitted extent for a clamped border cell, moves inside
// that cell (gaining links), and comes back.  The rest of the deployment
// jitters, so every step has enough movers for the pool, and each step is
// checked against a rebuild.
TEST_F(ParallelApplyTest, BucketCopiesFollowMoversInAndOutOfTheGrid) {
  sim::Xoshiro256 rng(2024);
  const DeploymentParams p = paper_deploy();
  std::vector<Node> nodes = generate_deployment(p, rng);
  const std::size_t base = nodes.size();
  // Planted nodes sit inside the deployment's extent, so the graph's grid
  // (fitted to every initial node) is this one.
  const GridGeometry grid(nodes);
  const double y = p.side / 2.0;

  // The pair: radius 1, 0.9 apart on even steps (linked) and 1.1 apart on
  // odd ones, all four positions inside the cell of the centre `a`.
  double a = p.side / 2.0;
  while (grid.cell_of({a - 0.55, y}) != grid.cell_of({a + 0.55, y})) a += 0.1;
  const auto pair_x = [a](int t, double dir) {
    return a + dir * (t % 2 == 0 ? 0.45 : 0.55);
  };
  // The wanderer: inside at x = 3, then outside the extent (every base
  // node has x >= 0) at x = -2, out of everyone's reach, then at x = -0.5
  // in the same clamped border cell, within reach of the border nodes.
  const double wander_x[] = {3.0, -2.0, -0.5, 3.0};
  ASSERT_EQ(grid.cell_of({-2.0, y}), grid.cell_of({-0.5, y}));
  ASSERT_NE(grid.cell_of({-2.0, y}), grid.cell_of({3.0, y}));

  const auto s = static_cast<NodeId>(base);
  const auto t_id = static_cast<NodeId>(base + 1);
  const auto e = static_cast<NodeId>(base + 2);
  nodes.push_back({s, {pair_x(0, -1.0), y}, 1.0});
  nodes.push_back({t_id, {pair_x(0, 1.0), y}, 1.0});
  nodes.push_back({e, {wander_x[0], y}, 1.5});
  ASSERT_EQ(GridGeometry(nodes).cell_count(), grid.cell_count());

  Oracle oracle(nodes);
  std::vector<NodeId> hint;
  bool wanderer_linked_outside = false;
  for (int t = 1; t <= 24; ++t) {
    hint.clear();
    for (NodeId u = 0; u < base; ++u) {
      Node& node = nodes[u];
      node.pos.x = std::clamp(node.pos.x + rng.uniform(-0.05, 0.05), 0.0,
                              p.side);
      node.pos.y = std::clamp(node.pos.y + rng.uniform(-0.05, 0.05), 0.0,
                              p.side);
      hint.push_back(u);
    }
    nodes[s].pos.x = pair_x(t, -1.0);
    nodes[t_id].pos.x = pair_x(t, 1.0);
    nodes[e].pos.x = wander_x[t % 4];
    hint.insert(hint.end(), {s, t_id, e});
    ASSERT_EQ(grid.cell_of(nodes[s].pos), grid.cell_of(nodes[t_id].pos));

    oracle.step(nodes, hint, t % 2 == 0, "bucket copies");
    if (HasFatalFailure()) return;
    const DynamicDiskGraph& g = oracle.graph();
    EXPECT_EQ(g.linked(s, t_id), t % 2 == 0) << "step " << t;
    if (t % 4 == 1) {
      EXPECT_EQ(g.degree(e), 0u) << "step " << t;
    }
    if (t % 4 == 2 && g.degree(e) > 0) wanderer_linked_outside = true;
  }
  EXPECT_TRUE(wanderer_linked_outside)
      << "outside the extent, the wanderer should reach a border node";
  expect_pool_used(oracle, "bucket copies");
}

// ~5000 nodes: the constructor seeds from a DiskGraph::build that runs on
// the pool (at every pool size it must give the build's lists), and so does
// a region graph over most of them.  Then 20 pooled apply steps, each
// checked against a rebuild.
TEST_F(ParallelApplyTest, PooledSeedMatchesBuildThenRebuilds) {
  DeploymentParams p = paper_deploy();
  p.side = 12.5 * std::sqrt(5.0);  // ~5000 nodes at the paper's density
  WaypointParams wp;
  wp.v_min = 0.1;
  wp.v_max = 0.5;
  wp.pause = 2.0;
  sim::Xoshiro256 rng(0x5EED5EEDULL);
  MobileNetwork mobile(p, wp, rng);
  const std::vector<Node> nodes(mobile.nodes().begin(), mobile.nodes().end());
  ASSERT_GE(nodes.size(), DiskGraph::kParallelBuildNodes);
  const bool expect_fan_out = sim::default_pool().size() > 1;
  const auto pool_tasks = [] { return Counters::read().pool_tasks; };

  // Whole plane: the graph the steps below drive, then one more seed alone,
  // to see it reach the pool.
  Oracle oracle(nodes);
  oracle.expect_seed_matches_build();
  if (HasFatalFailure()) return;
  std::uint64_t before = pool_tasks();
  (void)DynamicDiskGraph{std::vector<Node>(nodes)};
  if (expect_fan_out) {
    EXPECT_GT(pool_tasks(), before) << "the whole-plane seed should fan out";
  }

  // A region: residents' lists are the whole-plane lists restricted to
  // residents.
  const geom::BBox region{{-1.0, -1.0}, {p.side - 2.0, p.side - 2.0}};
  before = pool_tasks();
  const DynamicDiskGraph local{std::vector<Node>(nodes), region};
  if (expect_fan_out) {
    EXPECT_GT(pool_tasks(), before) << "the region seed should fan out";
  }
  ASSERT_GE(local.resident_count(), DiskGraph::kParallelBuildNodes);
  const DiskGraph whole = DiskGraph::build(nodes);
  for (NodeId u = 0; u < whole.size(); ++u) {
    std::vector<NodeId> want;
    if (local.resident(u)) {
      for (const NodeId v : whole.neighbors(u)) {
        if (local.resident(v)) want.push_back(v);
      }
    }
    const auto got = local.neighbors(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "region adjacency of node " << u;
  }

  for (int t = 0; t < 20; ++t) {
    mobile.step(1.0, rng);
    oracle.step(mobile.nodes(), mobile.moved_last_step(), t % 2 == 0,
                "pooled seed");
    if (HasFatalFailure()) return;
  }
  expect_pool_used(oracle, "pooled seed");
}

}  // namespace
}  // namespace mldcs::net
