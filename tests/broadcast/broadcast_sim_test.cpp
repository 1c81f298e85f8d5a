// Tests for the network-wide broadcast simulator.

#include "broadcast/broadcast_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/self_pruning.hpp"
#include "broadcast/skyline_cache.hpp"
#include "core/invariants.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "obs/event_log.hpp"
#include "obs/event_replay.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast {
namespace {

net::DiskGraph chain(std::size_t n) {
  std::vector<net::Node> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back({static_cast<net::NodeId>(i),
                     {static_cast<double>(i), 0.0},
                     1.0});
  }
  return net::DiskGraph::build(std::move(nodes));
}

net::DiskGraph random_graph(std::uint64_t seed, double degree, bool hetero) {
  net::DeploymentParams p;
  p.target_avg_degree = degree;
  p.model = hetero ? net::RadiusModel::kUniform : net::RadiusModel::kHomogeneous;
  sim::Xoshiro256 rng(seed);
  return net::generate_graph(p, rng);
}

TEST(BroadcastSimTest, SingleNodeBroadcast) {
  const auto g = net::DiskGraph::build({{0, {0, 0}, 1.0}});
  const auto r = simulate_broadcast(g, 0, Scheme::kFlooding);
  EXPECT_EQ(r.transmissions, 1u);
  EXPECT_EQ(r.delivered, 1u);
  EXPECT_EQ(r.reachable, 1u);
  EXPECT_TRUE(r.full_delivery());
  EXPECT_EQ(r.max_hops, 0u);
}

#if MLDCS_INVARIANT_CHECKS_ENABLED
// deliver designates over sets(u) without looking for its members among
// u's receivers, so a set must name only nodes that hear u.  A debug build
// checks that every designee has: a set naming node 3 of a 0-1-2-3 chain
// from the source trips the check (counted here instead of aborting).
TEST(BroadcastSimTest, DesigneeThatDidNotHearTripsDebugCheck) {
  const auto g = chain(4);
  const std::vector<net::NodeId> bogus{3};
  const std::vector<net::NodeId> none;
  const auto sets = [&](net::NodeId u) -> std::span<const net::NodeId> {
    return u == 0 ? bogus : none;
  };
  core::reset_invariant_failures();
  core::set_invariant_action(core::InvariantAction::kCount);
  DeliveryScratch scratch;
  (void)deliver(g, 0, Scheme::kSkyline, sets,
                ReceptionModel::kBidirectionalLink, scratch);
  const std::uint64_t failures = core::invariant_failure_count();
  const std::string message = core::first_invariant_failure();
  core::set_invariant_action(core::InvariantAction::kAbort);
  core::reset_invariant_failures();
  EXPECT_EQ(failures, 1u);
  EXPECT_NE(message.find("named by 0 but does not hear it"), std::string::npos)
      << message;
}
#endif

TEST(BroadcastSimTest, InvalidSourceYieldsEmptyResult) {
  const auto g = chain(3);
  const auto r = simulate_broadcast(g, 99, Scheme::kFlooding);
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST(BroadcastSimTest, FloodingReachesWholeChainWithNTransmissions) {
  const auto g = chain(6);
  const auto r = simulate_broadcast(g, 0, Scheme::kFlooding);
  EXPECT_EQ(r.delivered, 6u);
  EXPECT_TRUE(r.full_delivery());
  EXPECT_EQ(r.transmissions, 6u);  // flooding: everyone retransmits
  EXPECT_EQ(r.max_hops, 5u);
}

TEST(BroadcastSimTest, HopCountIsGraphDistance) {
  const auto g = chain(5);
  const auto r = simulate_broadcast(g, 2, Scheme::kFlooding);
  EXPECT_EQ(r.max_hops, 2u);  // middle node: farthest end is 2 hops
}

TEST(BroadcastSimTest, DisconnectedNodesNotDelivered) {
  const auto g = net::DiskGraph::build(
      {{0, {0, 0}, 1.0}, {1, {1, 0}, 1.0}, {2, {9, 9}, 1.0}});
  const auto r = simulate_broadcast(g, 0, Scheme::kFlooding);
  EXPECT_EQ(r.delivered, 2u);
  EXPECT_EQ(r.reachable, 2u);
  EXPECT_TRUE(r.full_delivery());
  EXPECT_DOUBLE_EQ(r.delivery_ratio(), 1.0);
}

TEST(BroadcastSimTest, GreedyDeliversEverywhereWithFewerTransmissions) {
  for (std::uint64_t seed = 100; seed < 105; ++seed) {
    const auto g = random_graph(seed, 10, false);
    const auto flood = simulate_broadcast(g, 0, Scheme::kFlooding);
    const auto greedy = simulate_broadcast(g, 0, Scheme::kGreedy);
    EXPECT_TRUE(flood.full_delivery());
    EXPECT_TRUE(greedy.full_delivery())
        << "greedy 2-hop cover guarantees network-wide delivery";
    EXPECT_LE(greedy.transmissions, flood.transmissions);
    EXPECT_EQ(greedy.delivered, flood.delivered);
  }
}

TEST(BroadcastSimTest, SkylineDeliversEverywhereInHomogeneousNetworks) {
  // In homogeneous networks coverage == linkage, so the skyline set
  // dominates the 2-hop neighborhood and the broadcast completes.
  for (std::uint64_t seed = 120; seed < 126; ++seed) {
    const auto g = random_graph(seed, 10, false);
    const auto r = simulate_broadcast(g, 0, Scheme::kSkyline);
    EXPECT_TRUE(r.full_delivery()) << "seed " << seed;
  }
}

TEST(BroadcastSimTest, FloodingNeverBeatenOnDeliveryByAnyScheme) {
  for (std::uint64_t seed = 130; seed < 134; ++seed) {
    const auto g = random_graph(seed, 8, true);
    const auto flood = simulate_broadcast(g, 0, Scheme::kFlooding);
    for (Scheme s : {Scheme::kSkyline, Scheme::kGreedy}) {
      const auto r = simulate_broadcast(g, 0, s);
      EXPECT_LE(r.delivered, flood.delivered);
      EXPECT_LE(r.transmissions, flood.transmissions);
    }
  }
}

TEST(BroadcastSimTest, PhysicalReceptionReachesCoveredNonNeighbors) {
  // Big node 0 covers node 1 but they are not linked; physical reception
  // still delivers, link reception does not.
  const auto g = net::DiskGraph::build({{0, {0, 0}, 5.0}, {1, {2, 0}, 1.0}});
  const auto link = simulate_broadcast(g, 0, Scheme::kFlooding,
                                       ReceptionModel::kBidirectionalLink);
  const auto phys = simulate_broadcast(g, 0, Scheme::kFlooding,
                                       ReceptionModel::kPhysicalCoverage);
  EXPECT_EQ(link.delivered, 1u);
  EXPECT_EQ(phys.delivered, 2u);
}

// Asymmetric radii under physical coverage: four collinear nodes where the
// big source covers two nodes it is not linked to.
//
//   0:(0,0) r=3.0   1:(1,0) r=1.5   2:(2.4,0) r=1.0   3:(5.5,0) r=1.0
//
// Links (dist <= min radii): only 0-1.  reachable_from(0) = {0,1} = 2.
// Physical flooding from 0: 0's tx covers 1 and 2 (both new); 1's tx
// covers 0 and 2 (both duplicates); 2's tx covers nobody; 3 is silent.
TEST(BroadcastSimTest, AsymmetricRadiiPhysicalCoverageCountsStormExactly) {
  const auto g = net::DiskGraph::build({{0, {0, 0}, 3.0},
                                        {1, {1, 0}, 1.5},
                                        {2, {2.4, 0}, 1.0},
                                        {3, {5.5, 0}, 1.0}});
  const auto phys = simulate_broadcast(g, 0, Scheme::kFlooding,
                                       ReceptionModel::kPhysicalCoverage);
  EXPECT_EQ(phys.transmissions, 3u);
  EXPECT_EQ(phys.delivered, 3u);
  EXPECT_EQ(phys.reachable, 2u);
  EXPECT_EQ(phys.redundant_receptions, 2u);
  EXPECT_EQ(phys.max_hops, 1u);
  // More delivered than link-reachable: the ratio exceeds 1 exactly when
  // one-sided coverage outruns the bidirectional link graph.
  EXPECT_DOUBLE_EQ(phys.delivery_ratio(), 1.5);

  // Same graph under link reception: 2 is unreachable, and only 1 hears
  // the relayed copy back.
  const auto link = simulate_broadcast(g, 0, Scheme::kFlooding,
                                       ReceptionModel::kBidirectionalLink);
  EXPECT_EQ(link.transmissions, 2u);
  EXPECT_EQ(link.delivered, 2u);
  EXPECT_EQ(link.redundant_receptions, 1u);
  EXPECT_DOUBLE_EQ(link.delivery_ratio(), 1.0);
}

TEST(BroadcastSimTest, AsymmetricScenarioReplayDerivationAgrees) {
  // The same hand-counted numbers must fall out of the event stream: the
  // recorder is a second, independent derivation of the storm metrics.
  const auto g = net::DiskGraph::build({{0, {0, 0}, 3.0},
                                        {1, {1, 0}, 1.5},
                                        {2, {2.4, 0}, 1.0},
                                        {3, {5.5, 0}, 1.0}});
  obs::events_stop();
  obs::events_clear();
  obs::events_start();
  const auto sim = simulate_broadcast(g, 0, Scheme::kFlooding,
                                      ReceptionModel::kPhysicalCoverage);
  obs::events_stop();
  const auto replays = obs::replay_broadcasts(obs::events_snapshot());
  obs::events_clear();
  ASSERT_EQ(replays.size(), 1u);
  const obs::ReplayedBroadcast& r = replays.front();
  EXPECT_EQ(r.transmissions, sim.transmissions);
  EXPECT_EQ(r.delivered, sim.delivered);
  EXPECT_EQ(r.max_hops, sim.max_hops);
  EXPECT_EQ(r.reachable, sim.reachable);
  EXPECT_EQ(r.redundant_receptions, sim.redundant_receptions);

  // Per-node fates pin down *which* receptions were redundant.
  EXPECT_EQ(r.fate(2).delivered_by, 0u);
  EXPECT_EQ(r.fate(2).hop, 1u);
  EXPECT_EQ(r.fate(2).duplicates_heard, 1u);  // 1's copy
  EXPECT_EQ(r.fate(0).duplicates_heard, 1u);  // 1's copy back at the source
  EXPECT_FALSE(r.fate(3).received);
  const auto by_tx = obs::redundancy_by_transmitter(r);
  ASSERT_EQ(by_tx.size(), 1u);
  EXPECT_EQ(by_tx.front(), (std::pair<net::NodeId, std::uint64_t>{1, 2}));
}

/// Independent replay of the simulator's semantics over the per-relay
/// LocalView reference, forwarding_set(g, u, scheme): FIFO transmissions,
/// receivers in ascending id order, a node re-transmits once iff it has
/// received the message and some sender named it (flooding names every
/// receiver, covered non-neighbors included) — and, when `pruned`, the
/// Wu-Li rule let it through for that sender.
BroadcastResult reference_broadcast(const net::DiskGraph& g,
                                    net::NodeId source, Scheme scheme,
                                    ReceptionModel model, bool pruned) {
  BroadcastResult r;
  r.reachable = g.reachable_from(source).size();
  std::vector<bool> received(g.size(), false);
  std::vector<bool> designated(g.size(), false);
  std::vector<std::uint64_t> hops(g.size(), 0);
  std::deque<net::NodeId> fifo{source};
  received[source] = designated[source] = true;
  r.delivered = 1;
  while (!fifo.empty()) {
    const net::NodeId u = fifo.front();
    fifo.pop_front();
    ++r.transmissions;
    const std::vector<net::NodeId> fwd =
        scheme == Scheme::kFlooding ? std::vector<net::NodeId>{}
                                    : forwarding_set(g, u, scheme);
    for (net::NodeId v = 0; v < g.size(); ++v) {
      const bool hears = model == ReceptionModel::kBidirectionalLink
                             ? g.linked(u, v)
                             : v != u && g.node(u).covers(g.node(v));
      if (!hears) continue;
      if (received[v]) {
        ++r.redundant_receptions;
      } else {
        received[v] = true;
        hops[v] = hops[u] + 1;
        ++r.delivered;
        r.max_hops = std::max(r.max_hops, hops[v]);
      }
      const bool named = scheme == Scheme::kFlooding ||
                         std::binary_search(fwd.begin(), fwd.end(), v);
      if (!designated[v] && named &&
          (!pruned || self_pruning_would_forward(g, u, v))) {
        designated[v] = true;
        fifo.push_back(v);
      }
    }
  }
  return r;
}

void expect_same_result(const BroadcastResult& got,
                        const BroadcastResult& want) {
  EXPECT_EQ(got.transmissions, want.transmissions);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.max_hops, want.max_hops);
  EXPECT_EQ(got.reachable, want.reachable);
  EXPECT_EQ(got.redundant_receptions, want.redundant_receptions);
}

void expect_matches_reference(const net::DiskGraph& g, net::NodeId source,
                              ReceptionModel model) {
  for (const Scheme scheme :
       {Scheme::kFlooding, Scheme::kSkyline, Scheme::kGreedy}) {
    for (const bool pruned : {false, true}) {
      SCOPED_TRACE(::testing::Message() << scheme_name(scheme)
                                        << (pruned ? " pruned" : " plain"));
      const BroadcastResult got =
          pruned ? simulate_pruned_broadcast(g, source, scheme, model)
                 : simulate_broadcast(g, source, scheme, model);
      expect_same_result(got,
                         reference_broadcast(g, source, scheme, model, pruned));
    }
  }
}

TEST(BroadcastSimTest, SkylineMatchesLocalViewReferenceReplay) {
  for (std::uint64_t seed = 150; seed < 154; ++seed) {
    for (const bool hetero : {false, true}) {
      const auto g = random_graph(seed, 10, hetero);
      ASSERT_GT(g.size(), 2u);
      for (const ReceptionModel model : {ReceptionModel::kBidirectionalLink,
                                         ReceptionModel::kPhysicalCoverage}) {
        for (const net::NodeId source :
             {net::NodeId{0}, static_cast<net::NodeId>(g.size() / 2),
              static_cast<net::NodeId>(g.size() - 1)}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " hetero " << hetero
                       << " model " << static_cast<int>(model) << " source "
                       << source);
          expect_matches_reference(g, source, model);
        }
      }
    }
  }
}

TEST(BroadcastSimTest, SkylineMatchesReferenceWithCoincidentDuplicates) {
  // Every third node gets a coincident twin (same position and radius):
  // ties between identical disks must break the same way on both paths.
  net::DeploymentParams p;
  p.target_avg_degree = 10;
  p.model = net::RadiusModel::kUniform;
  sim::Xoshiro256 rng(160);
  std::vector<net::Node> nodes = net::generate_deployment(p, rng);
  const std::size_t n = nodes.size();
  for (std::size_t i = 0; i < n; i += 3) nodes.push_back(nodes[i]);
  const auto g = net::DiskGraph::build(std::move(nodes));
  for (const ReceptionModel model : {ReceptionModel::kBidirectionalLink,
                                     ReceptionModel::kPhysicalCoverage}) {
    for (const net::NodeId source :
         {net::NodeId{0}, static_cast<net::NodeId>(n)}) {  // a pair
      SCOPED_TRACE(::testing::Message() << "model " << static_cast<int>(model)
                                        << " source " << source);
      expect_matches_reference(g, source, model);
    }
  }
}

TEST(BroadcastSimTest, DeliverOverAllSkylinesMatchesSimulator) {
  sim::ThreadPool pool(2);
  DeliveryScratch scratch;  // kept across every broadcast below
  for (const bool hetero : {false, true}) {
    const auto g = random_graph(170, 12, hetero);
    const AllSkylines all = compute_all_skylines(g, pool);
    const auto sets = [&](net::NodeId u) { return all.forwarding_set(u); };
    for (const ReceptionModel model : {ReceptionModel::kBidirectionalLink,
                                       ReceptionModel::kPhysicalCoverage}) {
      for (const net::NodeId source :
           {net::NodeId{0}, static_cast<net::NodeId>(g.size() / 3),
            static_cast<net::NodeId>(g.size() / 2),
            static_cast<net::NodeId>(g.size() - 1)}) {
        SCOPED_TRACE(::testing::Message()
                     << "hetero " << hetero << " model "
                     << static_cast<int>(model) << " source " << source);
        expect_same_result(
            deliver(g, source, Scheme::kSkyline, sets, model, scratch),
            simulate_broadcast(g, source, Scheme::kSkyline, model));
        expect_same_result(
            deliver(g, source, Scheme::kFlooding, sets, model, scratch),
            simulate_broadcast(g, source, Scheme::kFlooding, model));
      }
    }
  }
}

TEST(BroadcastSimTest, DeliverOverSkylineCacheMatchesSimulatorAfterMobility) {
  net::DeploymentParams p;
  p.target_avg_degree = 10;
  p.model = net::RadiusModel::kUniform;
  // Slow, pause-heavy motion: links keep changing, but few relays go
  // dirty per step, so 60 steps stay cheap under the sanitizers.
  net::WaypointParams wp;
  wp.v_min = 0.02;
  wp.v_max = 0.1;
  wp.pause = 10.0;
  wp.max_leg = 1.0;
  wp.steady_state_init = true;
  sim::Xoshiro256 rng(180);
  sim::ThreadPool pool(2);
  net::MobileNetwork mobile(p, wp, rng);
  net::DynamicDiskGraph dyn{
      std::vector<net::Node>(mobile.nodes().begin(), mobile.nodes().end())};
  SkylineCache cache(dyn, pool);
  const auto sets = [&](net::NodeId u) { return cache.forwarding_set(u); };
  DeliveryScratch scratch;
  std::size_t link_flips = 0;
  for (int t = 1; t <= 60; ++t) {
    mobile.step(1.0, rng);
    const auto& delta = dyn.apply(mobile.nodes(), mobile.moved_last_step());
    link_flips += delta.edges_added + delta.edges_removed;
    cache.update(delta);
    if (t % 20 != 0) continue;
    const net::DiskGraph g = dyn.to_disk_graph();
    for (const ReceptionModel model : {ReceptionModel::kBidirectionalLink,
                                       ReceptionModel::kPhysicalCoverage}) {
      for (const net::NodeId source :
           {net::NodeId{0}, static_cast<net::NodeId>(g.size() / 2)}) {
        SCOPED_TRACE(::testing::Message()
                     << "step " << t << " model " << static_cast<int>(model)
                     << " source " << source);
        expect_same_result(
            deliver(dyn, source, Scheme::kSkyline, sets, model, scratch),
            simulate_broadcast(g, source, Scheme::kSkyline, model));
      }
    }
  }
  RecordProperty("link_flips", static_cast<int>(link_flips));
  EXPECT_GT(link_flips, 0u) << "the topology never changed";
}

TEST(BroadcastSimTest, TransmissionCountsAreDeterministic) {
  const auto g = random_graph(140, 10, true);
  const auto a = simulate_broadcast(g, 0, Scheme::kSkyline);
  const auto b = simulate_broadcast(g, 0, Scheme::kSkyline);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.max_hops, b.max_hops);
}

}  // namespace
}  // namespace mldcs::bcast
