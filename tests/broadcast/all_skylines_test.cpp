// compute_all_skylines (the batched all-relay MLDCS API) against the
// per-relay reference forwarding_set(g, u, Scheme::kSkyline) — the call the
// end-to-end benchmark's oracle makes — across deployment models, densities
// and thread-pool sizes.  The batch path shares the Merge core but none of
// the per-relay plumbing (LocalView, Skyline objects), so this is a real
// differential test of the CSR assembly and the per-worker workspace reuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/forwarding.hpp"
#include "broadcast/relay_skyline.hpp"
#include "core/skyline_dc.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast {
namespace {

net::DiskGraph make_graph(bool hetero, double degree, std::uint64_t seed) {
  net::DeploymentParams p;
  p.model =
      hetero ? net::RadiusModel::kUniform : net::RadiusModel::kHomogeneous;
  p.target_avg_degree = degree;
  sim::Xoshiro256 rng(seed);
  return net::generate_graph(p, rng);
}

void expect_matches_per_relay(const net::DiskGraph& g, sim::ThreadPool& pool,
                              const std::string& label) {
  const AllSkylines all = compute_all_skylines(g, pool);
  ASSERT_EQ(all.size(), g.size()) << label;

  std::size_t total = 0;
  std::size_t max_arcs = 0;
  core::SkylineWorkspace ws;
  for (net::NodeId u = 0; u < g.size(); ++u) {
    const std::string where = label + " relay " + std::to_string(u);
    const std::vector<net::NodeId> expected =
        forwarding_set(g, u, Scheme::kSkyline);
    const std::span<const net::NodeId> got = all.forwarding_set(u);
    ASSERT_EQ(std::vector<net::NodeId>(got.begin(), got.end()), expected)
        << where;
    total += expected.size();

    // Arc counts must match a standalone skyline of the same local set.
    std::vector<geom::Disk> disks;
    disks.push_back(g.node(u).disk());
    for (const net::NodeId v : g.neighbors(u)) {
      disks.push_back(g.node(v).disk());
    }
    const core::Skyline sky = core::compute_skyline(disks, g.node(u).pos, ws);
    EXPECT_EQ(all.arc_count(u), sky.arc_count()) << where;
    max_arcs = std::max(max_arcs, sky.arc_count());
  }
  EXPECT_EQ(all.total_forwarders(), total) << label;
  EXPECT_EQ(all.max_arc_count(), max_arcs) << label;
  if (g.size() > 0) {
    EXPECT_DOUBLE_EQ(all.average_forwarding_size(),
                     static_cast<double>(total) /
                         static_cast<double>(g.size()))
        << label;
  }
}

TEST(AllSkylinesTest, MatchesPerRelayReferenceHomogeneous) {
  sim::ThreadPool pool;
  expect_matches_per_relay(make_graph(false, 8, 0xA110C8), pool, "homo deg=8");
}

TEST(AllSkylinesTest, MatchesPerRelayReferenceHeterogeneous) {
  sim::ThreadPool pool;
  expect_matches_per_relay(make_graph(true, 8, 0xA110C9), pool,
                           "hetero deg=8");
  // The benchmark's density: radii U[1,2], degree 36.8, ~1000 nodes.  Here
  // the sector bound drops about 60% of a relay's disks before the merge.
  const net::DiskGraph paper = make_graph(true, 36.8, 0xA110CB);
  ASSERT_GT(paper.size(), 900u);
  expect_matches_per_relay(paper, pool, "hetero deg=36.8");
}

// Pool sizes 1-5 give byte-identical results whichever participant claims
// which block: on a ~1000-node deployment, and on one of 12 nodes — fewer
// than one block of relays per participant.
TEST(AllSkylinesTest, ResultIndependentOfThreadCount) {
  const net::DiskGraph big = make_graph(true, 10, 0xA110CA);
  std::vector<net::Node> few(big.nodes().begin(), big.nodes().begin() + 12);
  const net::DiskGraph small = net::DiskGraph::build(std::move(few));
  ASSERT_LT(small.size(), detail::kRelayBlock * 4);
  for (const net::DiskGraph* g : {&big, &small}) {
    sim::ThreadPool one(1);
    const AllSkylines serial = compute_all_skylines(*g, one);
    for (const std::size_t threads : {2u, 3u, 4u, 5u}) {
      sim::ThreadPool pool(threads);
      const AllSkylines parallel = compute_all_skylines(*g, pool);
      ASSERT_EQ(parallel.size(), serial.size());
      ASSERT_EQ(parallel.total_forwarders(), serial.total_forwarders());
      for (net::NodeId u = 0; u < g->size(); ++u) {
        const auto a = serial.forwarding_set(u);
        const auto b = parallel.forwarding_set(u);
        ASSERT_EQ(a.size(), b.size())
            << "n=" << g->size() << " threads=" << threads << " relay=" << u;
        ASSERT_TRUE(std::ranges::equal(a, b))
            << "n=" << g->size() << " threads=" << threads << " relay=" << u;
        EXPECT_EQ(parallel.arc_count(u), serial.arc_count(u));
      }
    }
  }
}

TEST(AllSkylinesTest, IsolatedNodesHaveEmptyForwardingSets) {
  // Three nodes far apart: no edges, every forwarding set empty, every
  // skyline a single self-disk arc.
  std::vector<net::Node> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back({net::kNoNode, {static_cast<double>(100 * i), 0.0}, 1.0});
  }
  const net::DiskGraph g = net::DiskGraph::build(std::move(nodes));
  sim::ThreadPool pool;
  const AllSkylines all = compute_all_skylines(g, pool);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.total_forwarders(), 0u);
  for (net::NodeId u = 0; u < 3; ++u) {
    EXPECT_TRUE(all.forwarding_set(u).empty());
    EXPECT_EQ(all.arc_count(u), 1u);
  }
}

TEST(AllSkylinesTest, EmptyGraph) {
  const net::DiskGraph g = net::DiskGraph::build({});
  sim::ThreadPool pool;
  const AllSkylines all = compute_all_skylines(g, pool);
  EXPECT_EQ(all.size(), 0u);
  EXPECT_EQ(all.total_forwarders(), 0u);
  EXPECT_EQ(all.max_arc_count(), 0u);
}

}  // namespace
}  // namespace mldcs::bcast
