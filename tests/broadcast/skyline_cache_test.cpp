// Tests for SkylineCache: cached forwarding sets must stay bit-identical to
// a from-scratch compute_all_skylines after every mobility step, and the
// dirty-relay rule must be local (a far-away move leaves a relay untouched).

#include "broadcast/skyline_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/relay_skyline.hpp"
#include "core/invariants.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "support/alloc_guard.hpp"
#include "support/pool_tasks.hpp"

namespace mldcs::bcast {
namespace {

net::DeploymentParams small_deploy() {
  net::DeploymentParams p;
  p.target_avg_degree = 8;
  p.model = net::RadiusModel::kUniform;
  return p;
}

void expect_matches_fresh(const SkylineCache& cache,
                          const net::DynamicDiskGraph& dyn,
                          sim::ThreadPool& pool, const char* where) {
  const net::DiskGraph g = dyn.to_disk_graph();
  const AllSkylines fresh = compute_all_skylines(g, pool);
  ASSERT_EQ(cache.size(), fresh.size()) << where;
  ASSERT_EQ(cache.total_forwarders(), fresh.total_forwarders()) << where;
  for (net::NodeId u = 0; u < dyn.size(); ++u) {
    const auto got = cache.forwarding_set(u);
    const auto want = fresh.forwarding_set(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << where << ": forwarding set mismatch at relay " << u;
    ASSERT_EQ(cache.arc_count(u), fresh.arc_count(u))
        << where << ": arc count mismatch at relay " << u;
  }
}

TEST(SkylineCacheTest, InitialSweepMatchesComputeAllSkylines) {
  sim::Xoshiro256 rng(31);
  sim::ThreadPool pool(2);
  const net::DynamicDiskGraph dyn{
      net::generate_deployment(small_deploy(), rng)};
  const SkylineCache cache(dyn, pool);
  expect_matches_fresh(cache, dyn, pool, "initial");
  EXPECT_EQ(cache.recompute_count(), 0u);  // initial sweep is not counted
}

/// Long differential run across mobility regimes and seeds: after every
/// incremental update the cache must equal a from-scratch sweep.
TEST(SkylineCacheTest, LongRunMatchesFromScratch) {
  struct Regime {
    const char* name;
    net::WaypointParams wp;
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

  sim::ThreadPool pool(4);
  for (const Regime& regime : regimes) {
    for (const std::uint64_t seed : {41u, 42u, 43u}) {
      sim::Xoshiro256 rng(seed);
      net::MobileNetwork mobile(small_deploy(), regime.wp, rng);
      net::DynamicDiskGraph dyn{std::vector<net::Node>(
          mobile.nodes().begin(), mobile.nodes().end())};
      SkylineCache cache(dyn, pool);
      for (int t = 0; t < 50; ++t) {
        mobile.step(1.0, rng);
        const auto& delta = dyn.apply(mobile.nodes(), mobile.moved_last_step());
        cache.update(delta);
        // Verifying every step across 3 regimes x 3 seeds is the point of
        // the test but O(n^2-ish); check a rolling prefix plus every 5th.
        if (t < 10 || t % 5 == 0) {
          expect_matches_fresh(cache, dyn, pool, regime.name);
        }
      }
      expect_matches_fresh(cache, dyn, pool, regime.name);
    }
  }
}

TEST(SkylineCacheTest, FarAwayMoveLeavesRelayClean) {
  // Two well-separated clusters; moving a node inside the right cluster
  // must not dirty (or change) any relay of the left cluster.
  std::vector<net::Node> nodes{
      {0, {0.0, 0.0}, 1.0},  {1, {0.8, 0.0}, 1.2}, {2, {0.4, 0.6}, 1.0},
      {3, {50.0, 0.0}, 1.0}, {4, {50.8, 0.0}, 1.1}, {5, {50.4, 0.6}, 1.0}};
  net::DynamicDiskGraph dyn{std::vector<net::Node>(nodes)};
  sim::ThreadPool pool(1);
  SkylineCache cache(dyn, pool);

  const std::vector<net::NodeId> before(cache.forwarding_set(0).begin(),
                                        cache.forwarding_set(0).end());
  nodes[4].pos = {50.9, 0.3};  // jiggle inside the right cluster
  const auto& delta = dyn.apply(nodes);
  cache.update(delta);

  const auto dirty = cache.last_dirty();
  for (const net::NodeId u : {0u, 1u, 2u}) {
    EXPECT_FALSE(std::binary_search(dirty.begin(), dirty.end(), u))
        << "left-cluster relay " << u << " was needlessly recomputed";
  }
  EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(),
                                 static_cast<net::NodeId>(4)));
  const auto after = cache.forwarding_set(0);
  EXPECT_TRUE(
      std::equal(after.begin(), after.end(), before.begin(), before.end()));
  expect_matches_fresh(cache, dyn, pool, "after far move");
}

TEST(SkylineCacheTest, NoOpUpdateRecomputesNothing) {
  sim::Xoshiro256 rng(32);
  std::vector<net::Node> nodes = net::generate_deployment(small_deploy(), rng);
  net::DynamicDiskGraph dyn{std::vector<net::Node>(nodes)};
  sim::ThreadPool pool(2);
  SkylineCache cache(dyn, pool);
  const auto& delta = dyn.apply(nodes);  // no motion
  cache.update(delta);
  EXPECT_TRUE(cache.last_dirty().empty());
  EXPECT_EQ(cache.recompute_count(), 0u);
}

TEST(SkylineCacheTest, SlotOverflowAndCompactionStayCorrect) {
  // A hub whose neighbor count grows step by step: its slot and the ring's
  // must outgrow their slack repeatedly, until half the store is dead and
  // it is repacked — through all of which the cache must stay exact.
  std::vector<net::Node> nodes;
  nodes.push_back({0, {0.0, 0.0}, 10.0});  // hub hears everyone
  const std::size_t kSatellites = 48;
  for (std::size_t i = 1; i <= kSatellites; ++i) {
    // Start far away (no links), radius large enough to link when close.
    nodes.push_back({static_cast<net::NodeId>(i),
                     {40.0 + 3.0 * static_cast<double>(i), 0.0},
                     10.0 + 0.01 * static_cast<double>(i)});
  }
  net::DynamicDiskGraph dyn{std::vector<net::Node>(nodes)};
  sim::ThreadPool pool(2);
  SkylineCache cache(dyn, pool);

  // Walk satellites into the hub's range one per step, on a ring so each
  // contributes a distinct skyline arc (growing forwarding set).
  for (std::size_t i = 1; i <= kSatellites; ++i) {
    const double angle =
        2.0 * 3.14159265358979 * static_cast<double>(i - 1) /
        static_cast<double>(kSatellites);
    nodes[i].pos = {8.0 * std::cos(angle), 8.0 * std::sin(angle)};
    const auto& delta = dyn.apply(nodes);
    cache.update(delta);
    expect_matches_fresh(cache, dyn, pool, "growing hub");
  }
  EXPECT_GT(cache.compaction_count(), 0u);

  // Now scatter them again — sets shrink, dead space accrues, compaction
  // keeps the store bounded.
  const std::size_t peak_store = cache.store_size();
  for (std::size_t i = 1; i <= kSatellites; ++i) {
    nodes[i].pos = {40.0 + 3.0 * static_cast<double>(i), 0.0};
    const auto& delta = dyn.apply(nodes);
    cache.update(delta);
  }
  expect_matches_fresh(cache, dyn, pool, "scattered again");
  EXPECT_LE(cache.store_size(), peak_store);
}

/// Relay u's slot position in the store, relative to the lowest slot: the
/// store layout, comparable across caches.
std::vector<std::ptrdiff_t> slot_offsets(const SkylineCache& cache) {
  const net::NodeId* base = cache.forwarding_set(0).data();
  for (net::NodeId u = 1; u < cache.size(); ++u) {
    base = std::min(base, cache.forwarding_set(u).data());
  }
  std::vector<std::ptrdiff_t> out;
  for (net::NodeId u = 0; u < cache.size(); ++u) {
    out.push_back(cache.forwarding_set(u).data() - base);
  }
  return out;
}

/// One cache over its own graph and pool.
struct PooledCache {
  PooledCache(std::size_t threads, const std::vector<net::Node>& start)
      : pool(threads), dyn(std::vector<net::Node>(start)), cache(dyn, pool) {}
  sim::ThreadPool pool;
  net::DynamicDiskGraph dyn;
  SkylineCache cache;
};

// Pool sizes 1-4 give byte-identical caches — sets, arc counts and store
// layout — whichever participant claims which block: over mobility steps
// where every participant claims blocks, and over a step with fewer dirty
// relays than one block per participant.
TEST(SkylineCacheTest, ResultIndependentOfThreadCount) {
  sim::Xoshiro256 rng(33);
  net::WaypointParams wp;
  net::MobileNetwork mobile(small_deploy(), wp, rng);
  const std::vector<net::Node> start(mobile.nodes().begin(),
                                     mobile.nodes().end());
  std::vector<std::unique_ptr<PooledCache>> legs;
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    legs.push_back(std::make_unique<PooledCache>(threads, start));
  }

  const auto step_all = [&](std::span<const net::Node> nodes) {
    for (const auto& leg : legs) leg->cache.update(leg->dyn.apply(nodes));
  };
  const auto expect_identical = [&](const std::string& where) {
    const SkylineCache& ref = legs[0]->cache;
    const std::vector<std::ptrdiff_t> ref_layout = slot_offsets(ref);
    for (std::size_t i = 1; i < legs.size(); ++i) {
      const SkylineCache& c = legs[i]->cache;
      const std::string leg = where + ", pool " + std::to_string(i + 1);
      ASSERT_EQ(c.store_size(), ref.store_size()) << leg;
      ASSERT_EQ(c.total_forwarders(), ref.total_forwarders()) << leg;
      ASSERT_EQ(c.compaction_count(), ref.compaction_count()) << leg;
      ASSERT_TRUE(std::ranges::equal(c.last_dirty(), ref.last_dirty())) << leg;
      ASSERT_EQ(slot_offsets(c), ref_layout) << leg;
      for (net::NodeId u = 0; u < ref.size(); ++u) {
        const auto a = ref.forwarding_set(u);
        const auto b = c.forwarding_set(u);
        ASSERT_EQ(a.size(), b.size()) << leg << ", relay " << u;
        ASSERT_TRUE(std::ranges::equal(a, b))
            << leg << ", relay " << u;
        ASSERT_EQ(c.arc_count(u), ref.arc_count(u)) << leg << ", relay " << u;
      }
    }
  };

  expect_identical("initial sweep");
  for (int t = 0; t < 10; ++t) {
    mobile.step(1.0, rng);
    step_all(mobile.nodes());
    expect_identical("step " + std::to_string(t));
    if (HasFatalFailure()) return;
  }

  // One node nudged: it and its few neighbors are dirty, fewer relays than
  // one block for each of the 4-worker pool's participants.
  std::vector<net::Node> nudged(mobile.nodes().begin(), mobile.nodes().end());
  nudged[7].pos.x += 1e-3;
  step_all(nudged);
  const std::size_t n_dirty = legs[0]->cache.last_dirty().size();
  ASSERT_GT(n_dirty, 0u);
  ASSERT_LT(n_dirty, detail::kRelayBlock * 4);
  expect_identical("nudge");
}

/// The incremental-update contract measured, not just commented: at every
/// pool size from 1 to 4, a warmed-up cache absorbs topology churn (graph
/// apply included) without a single heap allocation.  "Steady state" here
/// means the network oscillates inside an envelope it has visited before:
/// the relay batch and the slotted store reached their high-water marks
/// during warm-up, so every later set fits its slot in place.  (A random
/// walk that keeps exploring *new* configurations legitimately appends to
/// the store — that growth is amortized by slot slack, not zero.)  What
/// the recompute allocates may not depend on which participant claims
/// which block, so 200 updates per pool size give every schedule a chance
/// to show.  Cross-checks the static hot-no-alloc rule on
/// SkylineCache::update (tools/analyze/), which cannot see through the
/// ThreadPool dispatch.
TEST(SkylineCacheTest, SteadyStateUpdateIsAllocationFree) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  if (core::kInvariantChecksEnabled) {
    GTEST_SKIP() << "invariant diagnostics allocate by design (ALLOC_OK)";
  }
  sim::Xoshiro256 rng(47);
  const std::vector<net::Node> at_rest =
      net::generate_deployment(small_deploy(), rng);
  std::vector<net::Node> displaced = at_rest;
  for (std::size_t i = 0; i < displaced.size(); i += 3) {
    displaced[i].pos.x += 0.3;  // enough drift to change links and mark
    displaced[i].pos.y -= 0.2;  // every third node dirty each flip
  }

  for (std::size_t threads = 1; threads <= 4; ++threads) {
    net::DynamicDiskGraph dyn{std::vector<net::Node>(at_rest)};
    sim::ThreadPool pool(threads);
    SkylineCache cache(dyn, pool);
    test::start_workers(pool);

    // Warm-up: oscillate until every buffer and store slot has seen both
    // configurations and sits at its high-water mark.
    for (int t = 0; t < 20; ++t) {
      cache.update(dyn.apply(t % 2 == 0 ? displaced : at_rest));
    }

    std::uint64_t allocs = 0;
    std::uint64_t updates_with_dirty = 0;
    for (int t = 0; t < 200; ++t) {
      const std::span<const net::Node> next = t % 2 == 0 ? displaced : at_rest;
      const test::AllocGuard guard;
      cache.update(dyn.apply(next));
      allocs += guard.count();
      updates_with_dirty += cache.last_dirty().empty() ? 0u : 1u;
    }
    EXPECT_EQ(allocs, 0u) << "pool size " << threads
                          << ": warmed-up SkylineCache::update allocated";
    EXPECT_GT(updates_with_dirty, 0u)
        << "oscillation produced no dirty relays: the zero reading proved "
           "nothing";
  }
}

}  // namespace
}  // namespace mldcs::bcast
