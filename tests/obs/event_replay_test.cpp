// Differential tests for event replay: the flight recorder must be a
// sufficient record — folding the event stream back together must
// reproduce the simulator's own BroadcastResult byte-for-byte, across
// randomized deployments x reception models x schemes, plus the "why"
// queries (delivery tree, suppression, redundancy attribution).

#include "obs/event_replay.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "broadcast/broadcast_sim.hpp"
#include "broadcast/self_pruning.hpp"
#include "net/topology.hpp"
#include "obs/event_log.hpp"
#include "sim/rng.hpp"

namespace mldcs::obs {
namespace {

using bcast::BroadcastResult;
using bcast::ReceptionModel;
using bcast::Scheme;

class EventReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    events_stop();
    events_clear();
  }
  void TearDown() override {
    events_stop();
    events_clear();
  }
};

BroadcastResult result_of(const ReplayedBroadcast& r) {
  BroadcastResult out;
  out.transmissions = r.transmissions;
  out.delivered = r.delivered;
  out.max_hops = r.max_hops;
  out.reachable = r.reachable;
  out.redundant_receptions = r.redundant_receptions;
  return out;
}

/// Simulate (self-pruned when `pruned`) with the recorder armed and return
/// (simulated, replayed).
std::pair<BroadcastResult, ReplayedBroadcast> record_and_replay(
    const net::DiskGraph& g, net::NodeId source, Scheme scheme,
    ReceptionModel model, bool pruned = false) {
  events_clear();
  events_start();
  const BroadcastResult sim =
      pruned ? bcast::simulate_pruned_broadcast(g, source, scheme, model)
             : simulate_broadcast(g, source, scheme, model);
  events_stop();
  const auto replays = replay_broadcasts(events_snapshot());
  EXPECT_EQ(replays.size(), 1u);
  return {sim, replays.empty() ? ReplayedBroadcast{} : replays.front()};
}

void expect_byte_equal(const BroadcastResult& sim, const ReplayedBroadcast& r,
                       const char* where) {
  const BroadcastResult rec = result_of(r);
  EXPECT_EQ(std::memcmp(&sim, &rec, sizeof(BroadcastResult)), 0)
      << where << ": tx " << sim.transmissions << "/" << rec.transmissions
      << " delivered " << sim.delivered << "/" << rec.delivered << " hops "
      << sim.max_hops << "/" << rec.max_hops << " reachable " << sim.reachable
      << "/" << rec.reachable << " dup " << sim.redundant_receptions << "/"
      << rec.redundant_receptions;
}

TEST_F(EventReplayTest, ReplayMatchesSimulatorAcrossSchemesAndModels) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    for (const bool hetero : {false, true}) {
      net::DeploymentParams p;
      p.side = 8.0;  // ~90-180 nodes: dense enough for real redundancy
      p.target_avg_degree = 8;
      p.model =
          hetero ? net::RadiusModel::kUniform : net::RadiusModel::kHomogeneous;
      sim::Xoshiro256 rng(seed);
      const net::DiskGraph g = net::generate_graph(p, rng);

      std::vector<Scheme> schemes{Scheme::kFlooding, Scheme::kSkyline,
                                  Scheme::kGreedy, Scheme::kOptimal};
      if (!hetero) schemes.push_back(Scheme::kSelectingForwardingSet);
      for (const Scheme scheme : schemes) {
        for (const ReceptionModel model :
             {ReceptionModel::kBidirectionalLink,
              ReceptionModel::kPhysicalCoverage}) {
          for (const bool pruned : {false, true}) {
            const auto [sim, replay] =
                record_and_replay(g, 0, scheme, model, pruned);
            expect_byte_equal(sim, replay, bcast::scheme_name(scheme).data());
            EXPECT_EQ(replay.source, 0u);
            EXPECT_EQ(replay.scheme_tag,
                      (pruned ? bcast::kSelfPrunedTag : 0u) |
                          (static_cast<std::uint32_t>(model) << 8) |
                          static_cast<std::uint32_t>(scheme));
          }
        }
      }
    }
  }
}

TEST_F(EventReplayTest, DeliveryTreeIsCausallyConsistent) {
  net::DeploymentParams p;
  p.side = 8.0;
  p.target_avg_degree = 8;
  p.model = net::RadiusModel::kUniform;
  sim::Xoshiro256 rng(5);
  const net::DiskGraph g = net::generate_graph(p, rng);
  const auto [sim, r] = record_and_replay(
      g, 0, Scheme::kSkyline, ReceptionModel::kBidirectionalLink);
  static_cast<void>(sim);

  std::uint64_t received = 0;
  for (std::uint32_t v = 0; v < r.fates.size(); ++v) {
    const NodeFate& f = r.fates[v];
    if (!f.received) {
      EXPECT_FALSE(f.transmitted) << v;
      continue;
    }
    ++received;
    if (v == r.source) continue;
    // The deliverer is a real tree parent: it received one hop earlier and
    // transmitted.
    ASSERT_LT(f.delivered_by, r.fates.size()) << v;
    const NodeFate& parent = r.fates[f.delivered_by];
    EXPECT_TRUE(parent.transmitted) << v;
    EXPECT_EQ(parent.hop + 1, f.hop) << v;
    // Exactly one of {relayed (designated), suppressed} for received nodes.
    EXPECT_NE(f.transmitted, f.suppressed) << v;
  }
  EXPECT_EQ(received, r.delivered);
}

TEST_F(EventReplayTest, RedundancyAttributionSumsToStormMetric) {
  net::DeploymentParams p;
  p.side = 8.0;
  p.target_avg_degree = 10;
  sim::Xoshiro256 rng(23);
  const net::DiskGraph g = net::generate_graph(p, rng);
  const auto [sim, r] = record_and_replay(
      g, 0, Scheme::kFlooding, ReceptionModel::kBidirectionalLink);

  const auto by_tx = redundancy_by_transmitter(r);
  std::uint64_t total = 0;
  std::uint64_t prev = ~std::uint64_t{0};
  for (const auto& [u, count] : by_tx) {
    EXPECT_TRUE(r.fate(u).transmitted) << u;
    EXPECT_LE(count, prev);  // descending
    prev = count;
    total += count;
  }
  EXPECT_EQ(total, sim.redundant_receptions);
  EXPECT_GT(total, 0u) << "flooding a dense graph must cause duplicates";
}

TEST_F(EventReplayTest, ExplainMissedNamesSuppressedWouldBeRelays) {
  // 1's disk is strictly inside 0's, so 0's skyline forwarding set is
  // empty and 1 is suppressed; 2 is linked only to 1 and never hears it.
  const auto g = net::DiskGraph::build(
      {{0, {0, 0}, 5.0}, {1, {1, 0}, 2.0}, {2, {2.9, 0}, 2.0}});
  const auto [sim, r] = record_and_replay(
      g, 0, Scheme::kSkyline, ReceptionModel::kBidirectionalLink);
  EXPECT_EQ(sim.delivered, 2u);
  EXPECT_EQ(sim.reachable, 3u);
  EXPECT_FALSE(r.fate(2).received);
  EXPECT_TRUE(r.fate(1).suppressed);

  const std::vector<std::uint32_t> neighbors_of_2{1};
  const std::string why = explain_missed(r, 2, neighbors_of_2);
  EXPECT_NE(why.find("never received"), std::string::npos) << why;
  EXPECT_NE(why.find("suppressed"), std::string::npos) << why;
  EXPECT_NE(why.find("node 1"), std::string::npos) << why;

  // The delivered node's explanation reports its delivery path instead.
  const std::string got = explain_missed(r, 1, {});
  EXPECT_NE(got.find("received at hop 1 from node 0"), std::string::npos)
      << got;
}

TEST_F(EventReplayTest, MultipleBroadcastsSegmentCleanly) {
  const auto g = net::DiskGraph::build(
      {{0, {0, 0}, 1.0}, {1, {1, 0}, 1.0}, {2, {2, 0}, 1.0}});
  events_start();
  const auto a = bcast::simulate_broadcast(g, 0, Scheme::kFlooding);
  const auto b = bcast::simulate_broadcast(g, 2, Scheme::kFlooding);
  events_stop();
  const auto replays = replay_broadcasts(events_snapshot());
  ASSERT_EQ(replays.size(), 2u);
  expect_byte_equal(a, replays[0], "first");
  expect_byte_equal(b, replays[1], "second");
  EXPECT_EQ(replays[0].source, 0u);
  EXPECT_EQ(replays[1].source, 2u);
}

TEST_F(EventReplayTest, EmptyStreamReplaysToNothing) {
  EXPECT_TRUE(replay_broadcasts({}).empty());
}

TEST_F(EventReplayTest, HandBuiltStreamFoldsWithoutASimulator) {
  // Replay is pure data processing: a synthetic stream (as an offline tool
  // would load from JSONL) folds without a simulator or an armed log.
  const std::vector<Event> events{
      {0, kNoEvent, 3, 0, 0, EventType::kBroadcast},   // source 0, reachable 3
      {1, kNoEvent, 0, 0, kNoNode, EventType::kTx},    // source transmits
      {2, 1, 1, 1, 0, EventType::kRx},                 // 1 hears 0 at hop 1
      {3, 1, 0, 1, 0, EventType::kDesignate},          // 0 designates 1
      {4, 2, 1, 1, kNoNode, EventType::kTx},           // 1 relays
      {5, 4, 2, 2, 1, EventType::kRx},                 // 2 hears 1 at hop 2
      {6, 4, 2, 0, 1, EventType::kDuplicateRx},        // 0 hears 1 again
      {7, 5, 0, 2, kNoNode, EventType::kSuppress},     // 2 never designated
  };
  const auto replays = replay_broadcasts(events);
  ASSERT_EQ(replays.size(), 1u);
  const ReplayedBroadcast& r = replays.front();
  EXPECT_EQ(r.transmissions, 2u);
  EXPECT_EQ(r.delivered, 3u);
  EXPECT_EQ(r.max_hops, 2u);
  EXPECT_EQ(r.reachable, 3u);
  EXPECT_EQ(r.redundant_receptions, 1u);
  EXPECT_TRUE(r.fate(2).suppressed);
  EXPECT_EQ(r.fate(2).delivered_by, 1u);
  const auto by_tx = redundancy_by_transmitter(r);
  ASSERT_EQ(by_tx.size(), 1u);
  EXPECT_EQ(by_tx.front().first, 1u);
  EXPECT_EQ(by_tx.front().second, 1u);
}

}  // namespace
}  // namespace mldcs::obs
