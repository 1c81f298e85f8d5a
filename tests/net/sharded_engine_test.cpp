// Tests for the spatially sharded engine and cache: halo residency must
// cover every owned relay's 1-hop set, border crossings must migrate
// ownership, and the sharded forwarding sets must stay bit-identical to
// the single-engine SkylineCache at every step, for every shard count.

#include "net/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "broadcast/cache_watchdog.hpp"
#include "broadcast/sharded_cache.hpp"
#include "broadcast/skyline_cache.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "obs/event_log.hpp"
#include "obs/telemetry.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::net {
namespace {

DeploymentParams small_deploy(double degree = 8.0) {
  DeploymentParams p;
  p.target_avg_degree = degree;
  p.model = RadiusModel::kUniform;
  return p;
}

geom::BBox square(double side) { return {{0.0, 0.0}, {side, side}}; }

std::vector<NodeId> vec(std::span<const NodeId> s) {
  return {s.begin(), s.end()};
}

ShardedEngine::Config sharded(std::size_t shards, double side) {
  ShardedEngine::Config c;
  c.shards = shards;
  c.deployment = square(side);
  return c;
}

// --- Region-mode DynamicDiskGraph (the shard substrate) --------------------

TEST(RegionGraphTest, ResidencyRestrictsAdjacencyToTheRegion) {
  // Four unit-radius nodes on a line; region = left half [0,2]x[0,4].
  std::vector<Node> nodes{{0, {0.5, 1.0}, 1.0},
                          {1, {1.2, 1.0}, 1.0},
                          {2, {2.5, 1.0}, 1.0},
                          {3, {3.2, 1.0}, 1.0}};
  const geom::BBox region{{0.0, 0.0}, {2.0, 4.0}};
  DynamicDiskGraph g{std::vector<Node>(nodes), region};
  EXPECT_TRUE(g.region_mode());
  EXPECT_EQ(g.resident_count(), 2u);
  EXPECT_TRUE(g.resident(0));
  EXPECT_TRUE(g.resident(1));
  EXPECT_FALSE(g.resident(2));
  EXPECT_FALSE(g.resident(3));
  // Residents link to residents only; non-residents have empty lists even
  // though node 2 is within range of node 3 in the whole plane.
  EXPECT_EQ(vec(g.neighbors(0)), (std::vector<NodeId>{1}));
  EXPECT_EQ(vec(g.neighbors(1)), (std::vector<NodeId>{0}));
  EXPECT_TRUE(g.neighbors(2).empty());
  EXPECT_TRUE(g.neighbors(3).empty());
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(RegionGraphTest, ApplyClassifiesMoveInsertEvict) {
  std::vector<Node> nodes{{0, {0.5, 1.0}, 1.0},
                          {1, {1.2, 1.0}, 1.0},
                          {2, {3.2, 1.0}, 1.0}};
  const geom::BBox region{{0.0, 0.0}, {2.0, 4.0}};
  DynamicDiskGraph g{std::vector<Node>(nodes), region};

  // Insert: node 2 enters the region next to node 1.
  nodes[2].pos = {1.4, 1.0};
  const NodeId moved2[] = {2};
  const auto& d1 = g.apply(nodes, moved2);
  EXPECT_EQ(d1.moved, (std::vector<NodeId>{2}));
  EXPECT_EQ(d1.edges_added, 2u);  // 2-1 (distance 0.2) and 2-0 (0.9)
  EXPECT_TRUE(g.resident(2));
  EXPECT_EQ(g.resident_count(), 3u);
  EXPECT_EQ(vec(g.neighbors(1)), (std::vector<NodeId>{0, 2}));

  // Evict: node 1 leaves the region; its links tear down and the delta
  // still names it (downstream caches must re-check its neighborhood).
  nodes[1].pos = {3.5, 1.0};
  const NodeId moved1[] = {1};
  const auto& d2 = g.apply(nodes, moved1);
  EXPECT_EQ(d2.moved, (std::vector<NodeId>{1}));
  EXPECT_EQ(d2.edges_removed, 2u);
  EXPECT_FALSE(g.resident(1));
  EXPECT_TRUE(g.neighbors(1).empty());
  EXPECT_EQ(vec(g.neighbors(0)), (std::vector<NodeId>{2}));

  // Ignore: a mover that stays outside never touches the delta.
  nodes[1].pos = {3.8, 1.0};
  const auto& d3 = g.apply(nodes, moved1);
  EXPECT_TRUE(d3.empty());
}

// Seeding over the residents alone, on the paper's U[1,2] deployment: every
// resident's list is its whole-plane list restricted to residents, and
// every other slot is empty.  Regions cover the interior, a strip over the
// square's left edge, and nothing at all.
TEST(RegionGraphTest, SeedMatchesWholePlaneRestrictedToResidents) {
  DeploymentParams p = small_deploy(36.8);
  sim::Xoshiro256 rng(71);
  const std::vector<Node> nodes = generate_deployment(p, rng);
  const DiskGraph whole = DiskGraph::build(nodes);
  for (const geom::BBox& region :
       {geom::BBox{{2.0, 3.0}, {8.5, 10.0}},
        geom::BBox{{-1.0, -1.0}, {4.0, 14.0}},
        geom::BBox{{20.0, 20.0}, {30.0, 30.0}}}) {
    const DynamicDiskGraph g{std::vector<Node>(nodes), region};
    std::size_t residents = 0;
    std::size_t edges = 0;
    for (NodeId u = 0; u < whole.size(); ++u) {
      ASSERT_EQ(g.resident(u), region.contains(nodes[u].pos)) << u;
      if (!g.resident(u)) {
        ASSERT_TRUE(g.neighbors(u).empty()) << "non-resident " << u;
        continue;
      }
      ++residents;
      std::vector<NodeId> want;
      for (const NodeId v : whole.neighbors(u)) {
        if (region.contains(nodes[v].pos)) want.push_back(v);
      }
      edges += want.size();
      ASSERT_EQ(vec(g.neighbors(u)), want) << "resident " << u;
    }
    EXPECT_EQ(g.resident_count(), residents);
    EXPECT_EQ(g.edge_count(), edges / 2);
  }
}

// A hinted resident that did not move is dropped from the delta; a hinted
// non-resident entering the region is kept.
TEST(RegionGraphTest, HintedUnmovedResidentIsDropped) {
  std::vector<Node> nodes{{0, {0.5, 1.0}, 1.0},
                          {1, {1.2, 1.0}, 1.0},
                          {2, {3.2, 1.0}, 1.0}};
  DynamicDiskGraph g{std::vector<Node>(nodes),
                     geom::BBox{{0.0, 0.0}, {2.0, 4.0}}};
  nodes[2].pos = {1.4, 1.0};
  const NodeId hint[] = {0, 1, 2};
  EXPECT_EQ(g.apply(nodes, hint).moved, (std::vector<NodeId>{2}));
  EXPECT_TRUE(g.apply(nodes, hint).empty());
}

// --- Halo residency --------------------------------------------------------

TEST(ShardedEngineTest, HaloCoversEveryOwnedNeighborhood) {
  sim::Xoshiro256 rng(21);
  const std::vector<Node> nodes =
      generate_deployment(small_deploy(), rng);
  const DynamicDiskGraph whole{std::vector<Node>(nodes)};
  sim::ThreadPool pool(1);
  const ShardedEngine engine{std::vector<Node>(nodes), pool,
                             sharded(4, 12.5)};
  ASSERT_EQ(engine.shard_count(), 4u);
  EXPECT_EQ(engine.rows() * engine.cols(), 4u);

  std::size_t owned_total = 0;
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    owned_total += engine.owned_count(s);
  }
  EXPECT_EQ(owned_total, nodes.size());

  for (NodeId u = 0; u < whole.size(); ++u) {
    const std::uint32_t s = engine.owner_of(u);
    const DynamicDiskGraph& g = engine.shard_graph(s);
    ASSERT_TRUE(g.resident(u)) << "owned node not resident, node " << u;
    const auto got = g.neighbors(u);
    const auto want = whole.neighbors(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "owned adjacency differs from whole-plane at node " << u;
  }
  EXPECT_GT(engine.halo_fraction(), 0.0);
}

// --- Migration -------------------------------------------------------------

TEST(ShardedEngineTest, BorderCrossingMigratesOwnership) {
  // Two tiles side by side on [0,4]x[0,4]; margin = max radius = 1.
  std::vector<Node> nodes{{0, {1.9, 2.0}, 1.0},
                          {1, {0.9, 2.0}, 1.0},
                          {2, {3.2, 2.0}, 1.0}};
  sim::ThreadPool pool(1);
  ShardedEngine engine{std::vector<Node>(nodes), pool, sharded(2, 4.0)};
  ASSERT_EQ(engine.shard_count(), 2u);
  EXPECT_EQ(engine.owner_of(0), 0u);
  // Node 0 sits in tile 0's interior but inside tile 1's halo band.
  EXPECT_TRUE(engine.shard_graph(1).resident(0));
  EXPECT_EQ(engine.halo_count(1), 1u);

  // Cross the border: ownership migrates 0 -> 1, both shards keep exact
  // adjacency for their owned nodes.
  nodes[0].pos = {2.1, 2.0};
  const NodeId moved[] = {0};
  engine.step(nodes, moved);
  EXPECT_EQ(engine.owner_of(0), 1u);
  EXPECT_EQ(vec(engine.migrated_last_step()), (std::vector<NodeId>{0}));
  EXPECT_EQ(engine.migration_count(), 1u);
  EXPECT_TRUE(engine.shard_graph(1).neighbors(0).empty());
  EXPECT_EQ(engine.shard_delta(1).edges_removed, 0u);

  // Keep walking right, beyond tile 0's halo band: shard 0 evicts it.
  nodes[0].pos = {3.5, 2.0};
  engine.step(nodes, moved);
  EXPECT_TRUE(engine.migrated_last_step().empty());
  EXPECT_FALSE(engine.shard_graph(0).resident(0));
  EXPECT_TRUE(engine.shard_graph(0).neighbors(0).empty());
  EXPECT_EQ(vec(engine.shard_graph(1).neighbors(2)),
            (std::vector<NodeId>{0}));
  EXPECT_EQ(vec(engine.shard_graph(1).neighbors(0)),
            (std::vector<NodeId>{2}));
}

// --- Differential vs the single engine -------------------------------------

struct Regime {
  const char* name;
  WaypointParams wp;
};

std::vector<Regime> regimes() {
  Regime quasi{"quasi_static", {}};
  quasi.wp.v_min = 0.02;
  quasi.wp.v_max = 0.1;
  quasi.wp.pause = 50.0;
  quasi.wp.max_leg = 1.0;
  Regime moderate{"moderate", {}};
  moderate.wp.v_min = 0.1;
  moderate.wp.v_max = 0.5;
  moderate.wp.pause = 2.0;
  Regime storm{"high_speed", {}};
  storm.wp.v_min = 0.5;
  storm.wp.v_max = 1.5;
  storm.wp.pause = 0.0;
  return {quasi, moderate, storm};
}

/// Drive `steps` mobility steps comparing the sharded cache against the
/// single-engine SkylineCache relay by relay, every step.  Also checks the
/// sharded `cache.compactions` telemetry against the shards' own counts.
void expect_bit_identical_run(std::uint64_t seed, const WaypointParams& wp,
                              std::size_t shards, std::size_t steps,
                              const char* regime) {
  const double side = 12.5;
  DeploymentParams dp = small_deploy();
  sim::Xoshiro256 rng(seed);
  MobileNetwork net(dp, wp, rng);

  sim::ThreadPool pool(2);
  DynamicDiskGraph whole{std::vector<Node>(net.nodes())};
  bcast::SkylineCache single(whole, pool);
  ShardedEngine engine{std::vector<Node>(net.nodes()), pool,
                       sharded(shards, side)};
  bcast::ShardedSkylineCache cache(engine);
  const obs::Counter& compactions_counter =
      obs::registry().counter("cache.compactions");
  std::uint64_t sharded_reported = 0;

  for (std::size_t k = 0; k < steps; ++k) {
    net.step(0.5, rng);
    const auto moved = net.moved_last_step();
    single.update(whole.apply(net.nodes(), moved));
    const std::uint64_t before = compactions_counter.value();
    cache.step(net.nodes(), moved);
    sharded_reported += compactions_counter.value() - before;

    for (NodeId u = 0; u < whole.size(); ++u) {
      const auto got = cache.forwarding_set(u);
      const auto want = single.forwarding_set(u);
      ASSERT_TRUE(
          std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << regime << " seed " << seed << " shards " << shards << " step "
          << k << ": forwarding set mismatch at relay " << u;
      ASSERT_EQ(cache.arc_count(u), single.arc_count(u))
          << regime << " step " << k << " relay " << u;
    }
  }
  EXPECT_EQ(cache.total_forwarders(), single.total_forwarders());
  EXPECT_EQ(cache.update_count(), steps);

  std::uint64_t summed = 0;
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    summed += cache.shard(s).compaction_count();
  }
  EXPECT_EQ(sharded_reported, summed)
      << regime << ": cache.compactions disagrees with the shard stores";
}

/// Slot churn on two shards: satellites parked in the left tile walk one
/// per step into a hub's range, onto a ring, then out to the right tile.
/// The hub's set and the ring's outgrow their slots again and again, so
/// dead space piles up in the left shard's store until it compacts, inside
/// the barrier; the walk out migrates every satellite.  Compared with the
/// single engine relay by relay every step, and the sharded
/// `cache.compactions` telemetry with the shards' own counts; returns the
/// compaction count summed over shards.
std::uint64_t expect_bit_identical_churn() {
  constexpr std::size_t kSatellites = 48;
  const auto parked = [](std::size_t i) {
    return geom::Vec2{40.0 + 3.0 * static_cast<double>(i), 0.0};
  };
  const auto ring = [](std::size_t i) {
    const double angle = 2.0 * 3.14159265358979 *
                         static_cast<double>(i - 1) /
                         static_cast<double>(kSatellites);
    return geom::Vec2{8.0 * std::cos(angle), 8.0 * std::sin(angle)};
  };
  const auto gone = [](std::size_t i) {
    return geom::Vec2{210.0 + 3.0 * static_cast<double>(i), 0.0};
  };
  std::vector<Node> nodes{{0, {0.0, 0.0}, 10.0}};
  for (std::size_t i = 1; i <= kSatellites; ++i) {
    nodes.push_back({static_cast<NodeId>(i), parked(i),
                     10.0 + 0.01 * static_cast<double>(i)});
  }
  sim::ThreadPool pool(2);
  DynamicDiskGraph whole{std::vector<Node>(nodes)};
  bcast::SkylineCache single(whole, pool);
  ShardedEngine::Config config;
  config.shards = 2;
  config.deployment = {{-10.0, -10.0}, {390.0, 10.0}};
  ShardedEngine engine{std::vector<Node>(nodes), pool, config};
  EXPECT_EQ(engine.owned_count(0), nodes.size());
  bcast::ShardedSkylineCache cache(engine);
  const obs::Counter& compactions_counter =
      obs::registry().counter("cache.compactions");
  std::uint64_t sharded_reported = 0;

  std::vector<NodeId> moved(1);
  for (std::size_t k = 0; k < 2 * kSatellites; ++k) {
    const std::size_t i = k % kSatellites + 1;
    nodes[i].pos = k < kSatellites ? ring(i) : gone(i);
    moved[0] = static_cast<NodeId>(i);
    single.update(whole.apply(nodes, moved));
    const std::uint64_t before = compactions_counter.value();
    cache.step(nodes, moved);
    sharded_reported += compactions_counter.value() - before;
    for (NodeId u = 0; u < whole.size(); ++u) {
      const auto got = cache.forwarding_set(u);
      const auto want = single.forwarding_set(u);
      EXPECT_TRUE(
          std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "churn step " << k << ": forwarding set mismatch at relay "
          << u;
      EXPECT_EQ(cache.arc_count(u), single.arc_count(u))
          << "churn step " << k << " relay " << u;
    }
  }
  EXPECT_EQ(engine.owned_count(1), kSatellites);
  std::uint64_t summed = 0;
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    summed += cache.shard(s).compaction_count();
  }
  EXPECT_EQ(sharded_reported, summed)
      << "churn: cache.compactions disagrees with the shard stores";
  return summed;
}

TEST(ShardedEngineTest, BitIdenticalAcrossShardCounts) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    expect_bit_identical_run(101, regimes()[1].wp, shards, 12, "moderate");
  }
}

TEST(ShardedEngineTest, LongRunDifferentialAcrossRegimesAndSeeds) {
  for (const Regime& regime : regimes()) {
    for (const std::uint64_t seed : {7ull, 23ull}) {
      expect_bit_identical_run(seed, regime.wp, 4, 30, regime.name);
    }
  }
  // Slot churn makes the shard stores compact inside the barrier, and the
  // repacking must leave the sets untouched.
  EXPECT_GT(expect_bit_identical_churn(), 0u)
      << "no shard store was ever compacted";
}

// --- Deployment-rectangle contract ----------------------------------------

TEST(ShardedEngineTest, StepRejectsMoverOutsideDeploymentBeforeAnyChange) {
  const double side = 12.5;
  sim::Xoshiro256 rng(61);
  MobileNetwork net(small_deploy(), regimes()[1].wp, rng);
  sim::ThreadPool pool(2);
  DynamicDiskGraph whole{std::vector<Node>(net.nodes())};
  bcast::SkylineCache single(whole, pool);
  ShardedEngine engine{std::vector<Node>(net.nodes()), pool,
                       sharded(4, side)};
  bcast::ShardedSkylineCache cache(engine);

  net.step(0.5, rng);
  const std::vector<NodeId> moved = vec(net.moved_last_step());
  ASSERT_FALSE(moved.empty());
  const std::vector<std::uint32_t> owners(engine.owner_map().begin(),
                                          engine.owner_map().end());
  const std::vector<Node> committed(engine.nodes().begin(),
                                    engine.nodes().end());
  const auto expect_unchanged = [&] {
    EXPECT_EQ(engine.step_count(), 0u);
    EXPECT_TRUE(engine.migrated_last_step().empty());
    for (NodeId u = 0; u < engine.size(); ++u) {
      ASSERT_EQ(engine.owner_of(u), owners[u]) << "owner of " << u;
      ASSERT_EQ(engine.nodes()[u].pos, committed[u].pos) << "node " << u;
    }
  };
  for (const geom::Vec2 bad :
       {geom::Vec2{side + 1.0, 1.0}, geom::Vec2{-0.5, 3.0},
        geom::Vec2{std::numeric_limits<double>::quiet_NaN(), 2.0}}) {
    // Only the last mover escapes, so every earlier mover would already
    // have been committed by a check that ran inside the ownership loop.
    std::vector<Node> escaped(net.nodes().begin(), net.nodes().end());
    escaped[moved.back()].pos = bad;
    EXPECT_THROW(cache.step(escaped, moved), std::invalid_argument);
    expect_unchanged();
  }
  // A hinted id past the last node, after every valid mover.
  {
    std::vector<NodeId> past_end = moved;
    past_end.push_back(static_cast<NodeId>(engine.size()));
    EXPECT_THROW(cache.step(net.nodes(), past_end), std::invalid_argument);
    expect_unchanged();
  }

  // The rejected step left nothing behind: the same motion, valid this
  // time, still matches the single engine relay by relay.
  single.update(whole.apply(net.nodes(), moved));
  cache.step(net.nodes(), moved);
  for (NodeId u = 0; u < whole.size(); ++u) {
    const auto got = cache.forwarding_set(u);
    const auto want = single.forwarding_set(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "forwarding set mismatch at relay " << u;
  }
}

// A changed radius is checked with the rest of the step's input, before
// ownership is committed: a shard graph would reject it only inside the
// barrier.
TEST(ShardedEngineTest, StepRejectsChangedRadiusBeforeAnyChange) {
  const double side = 12.5;
  sim::Xoshiro256 rng(62);
  MobileNetwork net(small_deploy(), regimes()[1].wp, rng);
  sim::ThreadPool pool(2);
  ShardedEngine engine{std::vector<Node>(net.nodes()), pool,
                       sharded(4, side)};
  bcast::ShardedSkylineCache cache(engine);
  net.step(0.5, rng);
  const std::vector<NodeId> moved = vec(net.moved_last_step());
  ASSERT_FALSE(moved.empty());
  const std::vector<std::uint32_t> owners(engine.owner_map().begin(),
                                          engine.owner_map().end());
  const std::vector<Node> committed(engine.nodes().begin(),
                                    engine.nodes().end());

  std::vector<Node> grown(net.nodes().begin(), net.nodes().end());
  grown[moved.back()].radius *= 1.5;
  EXPECT_THROW(cache.step(grown, moved), std::invalid_argument);
  EXPECT_EQ(engine.step_count(), 0u);
  for (NodeId u = 0; u < engine.size(); ++u) {
    ASSERT_EQ(engine.owner_of(u), owners[u]) << "owner of " << u;
    ASSERT_EQ(engine.nodes()[u].pos, committed[u].pos) << "node " << u;
    ASSERT_EQ(engine.nodes()[u].radius, committed[u].radius) << "node " << u;
  }
  cache.step(net.nodes(), moved);  // the same motion, valid this time
  EXPECT_EQ(engine.step_count(), 1u);
}

// --- Events ----------------------------------------------------------------

TEST(ShardedEngineTest, EmitsShardExchangeWithCacheUpdateChild) {
  sim::Xoshiro256 rng(31);
  DeploymentParams dp = small_deploy(6.0);
  MobileNetwork net(dp, regimes()[1].wp, rng);
  sim::ThreadPool pool(1);
  ShardedEngine engine{std::vector<Node>(net.nodes()), pool,
                       sharded(4, 12.5)};
  bcast::ShardedSkylineCache cache(engine);

  obs::events_clear();
  obs::events_start();
  net.step(0.5, rng);
  cache.step(net.nodes(), net.moved_last_step());
  obs::events_stop();

  const auto events = obs::events_snapshot();
  std::size_t exchanges = 0;
  bool cache_linked = false;
  for (const obs::Event& e : events) {
    if (e.type == obs::EventType::kShardExchange) {
      ++exchanges;
      EXPECT_EQ(e.id, engine.last_event());
      EXPECT_EQ(e.value, engine.step_count());
    }
    if (e.type == obs::EventType::kCacheUpdate &&
        e.parent == engine.last_event()) {
      cache_linked = true;
      EXPECT_EQ(e.id, cache.last_update_event());
    }
    // Region-mode shard graphs must not emit per-shard kStep events.
    EXPECT_NE(e.type, obs::EventType::kStep);
  }
  EXPECT_EQ(exchanges, 1u);
  EXPECT_TRUE(cache_linked);
  obs::events_clear();
}

// --- Watchdog --------------------------------------------------------------

TEST(ShardedEngineTest, WatchdogCatchesInjectedShardCorruption) {
  sim::Xoshiro256 rng(41);
  DeploymentParams dp = small_deploy(6.0);
  MobileNetwork net(dp, regimes()[0].wp, rng);
  sim::ThreadPool pool(1);
  ShardedEngine engine{std::vector<Node>(net.nodes()), pool,
                       sharded(4, 12.5)};
  bcast::ShardedSkylineCache cache(engine);

  obs::ConsistencyWatchdog::Config wc;
  wc.period = 1;
  wc.samples = static_cast<std::uint32_t>(engine.size());
  auto wd = bcast::make_cache_watchdog(cache, wc);

  for (int k = 0; k < 4; ++k) {
    net.step(0.5, rng);
    cache.step(net.nodes(), net.moved_last_step());
    EXPECT_TRUE(wd.on_step(cache.last_update_event()));
  }
  EXPECT_TRUE(wd.clean());

  // Find a relay with a non-trivial set and corrupt its owner's slot.
  NodeId victim = kNoNode;
  for (NodeId u = 0; u < engine.size(); ++u) {
    if (!cache.forwarding_set(u).empty()) {
      victim = u;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);
  cache.corrupt_slot_for_testing(victim);
  EXPECT_FALSE(wd.check_now(cache.last_update_event()));
  EXPECT_FALSE(wd.clean());
  EXPECT_EQ(wd.last_mismatched_relays().size(), 1u);
  EXPECT_EQ(wd.last_mismatched_relays()[0], victim);
}

}  // namespace
}  // namespace mldcs::net
