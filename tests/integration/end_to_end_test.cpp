// Integration tests across the full stack: topology generation -> disk
// graph -> HELLO discovery -> forwarding-set selection -> broadcast
// simulation, mirroring the Chapter 5 pipeline end to end.

#include <gtest/gtest.h>

#include <algorithm>

#include "broadcast/broadcast_sim.hpp"
#include "broadcast/coverage_gap.hpp"
#include "broadcast/forwarding.hpp"
#include "core/mldcs.hpp"
#include "net/hello.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace mldcs {
namespace {

TEST(EndToEndTest, HelloDiscoveredViewMatchesGraphView) {
  // The forwarding layer consumes local views derived from the graph; this
  // pins them to what the HELLO protocol would actually deliver.
  net::DeploymentParams p;
  p.target_avg_degree = 8;
  p.model = net::RadiusModel::kUniform;
  sim::Xoshiro256 rng(2718);
  const auto g = net::generate_graph(p, rng);
  auto tables = net::run_hello_round1(g);
  net::run_hello_round2(g, tables);

  const bcast::LocalView view = bcast::local_view(g, 0);
  std::vector<net::NodeId> hello_one_hop;
  for (const auto& info : tables[0].one_hop) hello_one_hop.push_back(info.id);
  EXPECT_EQ(hello_one_hop, view.one_hop);
  EXPECT_EQ(net::two_hop_from_table(tables[0], 0), view.two_hop);
}

TEST(EndToEndTest, SkylineForwardingFromHelloDataOnly) {
  // Build the local disk set exclusively from beacon-received data and
  // check the MLDCS equals the graph-derived one.
  net::DeploymentParams p;
  p.target_avg_degree = 10;
  p.model = net::RadiusModel::kUniform;
  sim::Xoshiro256 rng(3141);
  const auto g = net::generate_graph(p, rng);
  const auto tables = net::run_hello_round1(g);

  std::vector<geom::Disk> disks{g.node(0).disk()};
  for (const auto& info : tables[0].one_hop) {
    disks.push_back(geom::Disk{info.pos, info.radius});
  }
  const core::LocalDiskSet set(g.node(0).pos, disks);
  const auto from_hello = core::mldcs(set);

  const bcast::LocalView view = bcast::local_view(g, 0);
  const auto from_graph = bcast::skyline_forwarding_set(g, view);
  // Map hello-set indices (1-based neighbors) to node ids.
  std::vector<net::NodeId> mapped;
  for (std::size_t idx : from_hello) {
    if (idx > 0) mapped.push_back(tables[0].one_hop[idx - 1].id);
  }
  std::sort(mapped.begin(), mapped.end());
  EXPECT_EQ(mapped, from_graph);
}

TEST(EndToEndTest, MiniFigure51PipelineOrdering) {
  // A reduced Figure 5.1 run: 20 homogeneous trials at degree 8; the curve
  // ordering flooding >= skyline >= greedy >= optimal must hold on the
  // averages (the paper's headline result).
  net::DeploymentParams p;
  p.target_avg_degree = 8;
  sim::RunningStats flood, sky, greedy, sel, optimal;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::Xoshiro256 rng(sim::derive_seed(55, seed));
    const auto g = net::generate_graph(p, rng);
    const bcast::LocalView view = bcast::local_view(g, 0);
    flood.add(static_cast<double>(
        bcast::forwarding_set(g, view, bcast::Scheme::kFlooding).size()));
    sky.add(static_cast<double>(
        bcast::forwarding_set(g, view, bcast::Scheme::kSkyline).size()));
    greedy.add(static_cast<double>(
        bcast::forwarding_set(g, view, bcast::Scheme::kGreedy).size()));
    sel.add(static_cast<double>(
        bcast::forwarding_set(g, view, bcast::Scheme::kSelectingForwardingSet)
            .size()));
    optimal.add(static_cast<double>(
        bcast::forwarding_set(g, view, bcast::Scheme::kOptimal).size()));
  }
  EXPECT_GE(flood.mean(), sky.mean());
  EXPECT_GE(sky.mean(), greedy.mean());
  EXPECT_GE(greedy.mean(), optimal.mean());
  EXPECT_GE(sel.mean(), optimal.mean());
}

TEST(EndToEndTest, MiniFigure54HeterogeneousOrdering) {
  net::DeploymentParams p;
  p.target_avg_degree = 8;
  p.model = net::RadiusModel::kUniform;
  sim::RunningStats flood, sky, greedy, optimal;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::Xoshiro256 rng(sim::derive_seed(66, seed));
    const auto g = net::generate_graph(p, rng);
    const bcast::LocalView view = bcast::local_view(g, 0);
    flood.add(static_cast<double>(view.one_hop.size()));
    sky.add(static_cast<double>(
        bcast::skyline_forwarding_set(g, view).size()));
    greedy.add(static_cast<double>(
        bcast::greedy_forwarding_set(g, view).size()));
    optimal.add(static_cast<double>(
        bcast::optimal_forwarding_set(g, view).size()));
  }
  EXPECT_GE(flood.mean(), sky.mean());
  EXPECT_GE(sky.mean(), optimal.mean());
  EXPECT_GE(greedy.mean(), optimal.mean());
}

TEST(EndToEndTest, BroadcastStormReduction) {
  // Network-wide: skyline forwarding keeps full delivery in homogeneous
  // networks and never transmits more than flooding.  (The dramatic
  // reduction the paper reports is in *per-relay forwarding-set size* —
  // Figure 5.1 — not total transmissions: under sender-based designation a
  // node relays if ANY neighbor names it, so designations accumulate across
  // senders.  We assert the per-relay reduction here too.)
  net::DeploymentParams p;
  p.target_avg_degree = 12;
  sim::RunningStats flood_tx, sky_tx, flood_fwd, sky_fwd;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::Xoshiro256 rng(sim::derive_seed(77, seed));
    const auto g = net::generate_graph(p, rng);
    const auto f = bcast::simulate_broadcast(g, 0, bcast::Scheme::kFlooding);
    const auto s = bcast::simulate_broadcast(g, 0, bcast::Scheme::kSkyline);
    EXPECT_TRUE(f.full_delivery());
    EXPECT_TRUE(s.full_delivery());
    flood_tx.add(static_cast<double>(f.transmissions));
    sky_tx.add(static_cast<double>(s.transmissions));
    const bcast::LocalView view = bcast::local_view(g, 0);
    flood_fwd.add(static_cast<double>(view.one_hop.size()));
    sky_fwd.add(static_cast<double>(
        bcast::skyline_forwarding_set(g, view).size()));
  }
  EXPECT_LE(sky_tx.mean(), flood_tx.mean());
  EXPECT_LT(sky_fwd.mean(), 0.8 * flood_fwd.mean());
}

TEST(EndToEndTest, HelloOverheadOrdering) {
  // The Section 5.1.1 cost argument, end to end: 2-hop beacons cost more
  // bytes than 1-hop beacons, and the gap widens with density.
  net::DeploymentParams p;
  sim::Xoshiro256 rng(88);
  p.target_avg_degree = 6;
  const auto sparse = net::generate_graph(p, rng);
  p.target_avg_degree = 14;
  const auto dense = net::generate_graph(p, rng);

  const auto s1 = net::hello1_cost(sparse);
  const auto s2 = net::hello2_cost(sparse);
  const auto d1 = net::hello1_cost(dense);
  const auto d2 = net::hello2_cost(dense);
  EXPECT_GT(s2.bytes, s1.bytes);
  EXPECT_GT(d2.bytes, d1.bytes);
  // Relative overhead grows with degree.
  const double sparse_ratio =
      static_cast<double>(s2.bytes) / static_cast<double>(s1.bytes);
  const double dense_ratio =
      static_cast<double>(d2.bytes) / static_cast<double>(d1.bytes);
  EXPECT_GT(dense_ratio, sparse_ratio);
}

TEST(EndToEndTest, PatchedSkylineRestoresDeliveryInHeterogeneousNetworks) {
  // Extension check: wherever plain skyline forwarding under-delivers, the
  // patched scheme (skyline + greedy gap repair at each relay) delivers
  // fully.  We verify at the forwarding-set level across many relays.
  net::DeploymentParams p;
  p.model = net::RadiusModel::kUniform;
  p.target_avg_degree = 10;
  sim::Xoshiro256 rng(99);
  const auto g = net::generate_graph(p, rng);
  for (net::NodeId u = 0; u < std::min<std::size_t>(g.size(), 50); ++u) {
    const bcast::LocalView view = bcast::local_view(g, u);
    const auto patched = bcast::patched_skyline_forwarding_set(g, view);
    for (net::NodeId w : view.two_hop) {
      bool covered = false;
      for (net::NodeId v : patched) covered = covered || g.linked(v, w);
      EXPECT_TRUE(covered) << "relay " << u << " missed 2-hop " << w;
    }
  }
}

}  // namespace
}  // namespace mldcs
