// DiskGraph::build against an O(n^2) reference: every ordered pair decided
// by Node::linked_to, each list collected in id order.  Every input has at
// least twice DiskGraph::kParallelBuildNodes nodes, so the build runs its
// passes on sim::default_pool(), and each is shaped to reach one edge of
// the build: coincident nodes, links exactly at min(r_u, r_v), nodes on cell
// boundaries (exact and rounded), degrees above kRankSortMax (the
// std::sort fallback), zero radii, a narrow strip, and a sparse extent wide
// enough that the grid doubles its cell side.
//
// tests/CMakeLists.txt registers this binary four times: at the host's
// default pool size, and with MLDCS_THREADS=1, 2 and 3.  default_pool()
// reads the variable once per process, so each pool size needs its own
// process.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "net/disk_graph.hpp"
#include "net/spatial_grid.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "support/pool_tasks.hpp"

namespace mldcs::net {
namespace {

constexpr std::size_t kMinNodes = 2 * DiskGraph::kParallelBuildNodes;

/// `count` nodes, each at (x, y) from `place(i)` with radius `radius(i)`.
template <typename Place, typename Radius>
std::vector<Node> make_nodes(std::size_t count, Place place, Radius radius) {
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back({static_cast<NodeId>(i), place(i), radius(i)});
  }
  return nodes;
}

/// The paper's heterogeneous deployment: ~1000 nodes, radii U[1,2],
/// average degree 36.8.
std::vector<Node> paper_density() {
  DeploymentParams p;
  p.model = RadiusModel::kUniform;
  p.target_avg_degree = 36.8;
  sim::Xoshiro256 rng(11);
  return generate_deployment(p, rng);
}

/// 80 points holding 8 nodes each, radii 0, 0.5, 1 and 1.5 in turn: every
/// node is linked to the other 7 at its point, whatever their radii.
std::vector<Node> coincident() {
  sim::Xoshiro256 rng(12);
  std::vector<geom::Vec2> points;
  for (int k = 0; k < 80; ++k) {
    points.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  return make_nodes(
      640, [&](std::size_t i) { return points[i % points.size()]; },
      [](std::size_t i) { return 0.5 * static_cast<double>(i % 4); });
}

/// A 24 x 24 integer lattice, radii 1, 2 and 5 in turn: every squared
/// distance and radius is exact, so many pairs sit exactly at
/// min(r_u, r_v) (distance 1, 2, and 5 along 3-4-5 diagonals).
std::vector<Node> exact_range() {
  return make_nodes(
      576,
      [](std::size_t i) {
        return geom::Vec2{static_cast<double>(i % 24),
                          static_cast<double>(i / 24)};
      },
      [](std::size_t i) {
        constexpr double kRadii[] = {1.0, 2.0, 5.0};
        return kRadii[(i * 7) % 3];
      });
}

/// A lattice whose spacing is the cell side (the maximum radius, 2), so
/// every node lies on a cell boundary and its lattice neighbors sit
/// exactly at the edge of the cells its walk covers.
std::vector<Node> cell_boundaries() {
  return make_nodes(
      576,
      [](std::size_t i) {
        return geom::Vec2{2.0 * static_cast<double>(i % 24),
                          2.0 * static_cast<double>(i / 24)};
      },
      [](std::size_t i) { return i % 5 == 0 ? 1.0 : 2.0; });
}

/// The same at spacing and cell side 0.3, which is not representable: the
/// positions, the ranges and the cell indices of the walk all round.
std::vector<Node> rounded_boundaries() {
  return make_nodes(
      576,
      [](std::size_t i) {
        return geom::Vec2{0.3 * static_cast<double>(i % 24),
                          0.3 * static_cast<double>(i / 24)};
      },
      [](std::size_t i) { return i % 5 == 0 ? 0.15 : 0.3; });
}

/// 150 nodes packed in a 0.5 x 0.5 square (each linked to all the others:
/// degree 149 > kRankSortMax) amid 450 paper-style nodes.
std::vector<Node> dense_cluster() {
  sim::Xoshiro256 rng(13);
  return make_nodes(
      600,
      [&](std::size_t i) {
        return i < 150 ? geom::Vec2{5 + rng.uniform(0, 0.5),
                                    5 + rng.uniform(0, 0.5)}
                       : geom::Vec2{rng.uniform(0, 10), rng.uniform(0, 10)};
      },
      [&](std::size_t) { return rng.uniform(1.0, 2.0); });
}

/// 300 points holding two nodes each, every other node of radius 0: a
/// zero-radius node links only to the node at its own point.
std::vector<Node> zero_radii() {
  sim::Xoshiro256 rng(14);
  std::vector<geom::Vec2> points;
  for (int k = 0; k < 300; ++k) {
    points.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  return make_nodes(
      600, [&](std::size_t i) { return points[i / 2]; },
      [&](std::size_t i) { return i % 2 == 0 ? 0.0 : rng.uniform(0.5, 1.5); });
}

/// A 200 x 0.25 strip: a grid of one cell row.
std::vector<Node> narrow_strip() {
  sim::Xoshiro256 rng(15);
  return make_nodes(
      700,
      [&](std::size_t) {
        return geom::Vec2{rng.uniform(0, 200), rng.uniform(0, 0.25)};
      },
      [&](std::size_t) { return rng.uniform(1.0, 2.0); });
}

/// 300 close pairs scattered over 10^4 x 10^4 with radii of 0.005-0.02:
/// cells of the maximum radius would number ~10^11, so the grid doubles its
/// side until it has at most max(4n, 1024) cells.
std::vector<Node> sparse_wide() {
  sim::Xoshiro256 rng(16);
  std::vector<geom::Vec2> centres;
  for (int k = 0; k < 300; ++k) {
    centres.push_back({rng.uniform(0, 1e4), rng.uniform(0, 1e4)});
  }
  return make_nodes(
      600,
      [&](std::size_t i) {
        const geom::Vec2 c = centres[i / 2];
        return i % 2 == 0 ? c
                          : geom::Vec2{c.x + rng.uniform(0, 0.015), c.y};
      },
      [&](std::size_t) { return rng.uniform(0.005, 0.02); });
}

struct Shape {
  const char* name;
  std::vector<Node> (*make)();
};

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

const Shape kShapes[] = {
    {"paper_density", paper_density},
    {"coincident", coincident},
    {"exact_range", exact_range},
    {"cell_boundaries", cell_boundaries},
    {"rounded_boundaries", rounded_boundaries},
    {"dense_cluster", dense_cluster},
    {"zero_radii", zero_radii},
    {"narrow_strip", narrow_strip},
    {"sparse_wide", sparse_wide},
};

class ParallelBuildTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ParallelBuildTest, MatchesBruteForce) {
  const std::vector<Node> nodes = GetParam().make();
  ASSERT_GE(nodes.size(), kMinNodes);

  const std::uint64_t before = test::pool_tasks();
  const DiskGraph g = DiskGraph::build(nodes);
  if (sim::default_pool().size() > 1) {
    EXPECT_GT(test::pool_tasks(), before) << "the build should fan out";
  }

  ASSERT_EQ(g.size(), nodes.size());
  std::size_t edges = 0;
  std::size_t max_degree = 0;
  for (NodeId u = 0; u < nodes.size(); ++u) {
    std::vector<NodeId> want;
    for (NodeId v = 0; v < nodes.size(); ++v) {
      if (v != u && nodes[u].linked_to(nodes[v])) want.push_back(v);
    }
    const auto got = g.neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), want)
        << "node " << u << " at " << nodes[u].pos << " r=" << nodes[u].radius;
    edges += want.size();
    max_degree = std::max(max_degree, want.size());
  }
  EXPECT_EQ(g.edge_count() * 2, edges);
  EXPECT_GT(edges, 0u) << "a shape without links checks nothing";

  // Each shape reaches the edge it is named for.
  const std::string name = GetParam().name;
  if (name == "dense_cluster") {
    EXPECT_GT(max_degree, kRankSortMax);
  }
  if (name == "sparse_wide") {
    double max_r = 0.0;
    for (const Node& n : nodes) max_r = std::max(max_r, n.radius);
    EXPECT_GT(GridGeometry(nodes).cell_size(), 2.0 * max_r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelBuildTest, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<Shape>& shape) {
      return std::string(shape.param.name);
    });

}  // namespace
}  // namespace mldcs::net
