// Tests for make_cache_watchdog: the bound watchdog must stay silent over
// a long clean mobility run (the cache is correct, so any bark is a false
// positive) and must catch an injected slot corruption within one sampling
// period when every relay is sampled.

#include "broadcast/cache_watchdog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/dynamic_disk_graph.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast {
namespace {

net::DeploymentParams tiny_deploy() {
  net::DeploymentParams p;
  p.side = 6.0;  // ~50 nodes: 500 steps of audit stay cheap
  p.target_avg_degree = 8;
  p.model = net::RadiusModel::kUniform;
  return p;
}

TEST(CacheWatchdogTest, SilentAcrossFiveHundredCleanMobilitySteps) {
  sim::Xoshiro256 rng(71);
  net::WaypointParams wp;
  net::MobileNetwork mobile(tiny_deploy(), wp, rng);
  net::DynamicDiskGraph dyn{
      std::vector<net::Node>(mobile.nodes().begin(), mobile.nodes().end())};
  sim::ThreadPool pool(2);
  SkylineCache cache(dyn, pool);

  auto wd = make_cache_watchdog(cache, {.period = 16, .samples = 8});
  for (int t = 0; t < 512; ++t) {
    mobile.step(1.0, rng);
    cache.update(dyn.apply(mobile.nodes(), mobile.moved_last_step()));
    EXPECT_TRUE(wd.on_step(cache.last_update_event())) << "step " << t;
  }
  EXPECT_EQ(wd.steps(), 512u);
  EXPECT_EQ(wd.checks(), 32u);
  EXPECT_EQ(wd.sampled(), 32u * 8u);
  EXPECT_TRUE(wd.clean());
  EXPECT_EQ(wd.last_mismatch_step(), 0u);
}

TEST(CacheWatchdogTest, InjectedCorruptionCaughtWithinOnePeriod) {
  sim::Xoshiro256 rng(72);
  net::WaypointParams wp;
  net::MobileNetwork mobile(tiny_deploy(), wp, rng);
  net::DynamicDiskGraph dyn{
      std::vector<net::Node>(mobile.nodes().begin(), mobile.nodes().end())};
  sim::ThreadPool pool(2);
  SkylineCache cache(dyn, pool);

  // Sampling the whole population each check makes "within one period"
  // deterministic: the first check after the injection must bark.
  const auto n = static_cast<std::uint32_t>(dyn.size());
  auto wd = make_cache_watchdog(cache, {.period = 8, .samples = n});

  // Inject right after the step-23 update: the corruption lands mid-run
  // with no later cache.update between it and the step-24 check, so a
  // recompute of the victim's slot cannot silently repair the injection
  // before the watchdog looks (which would make the test flaky).
  const net::NodeId victim = n / 2;
  bool corrupted = false;
  std::uint64_t corrupted_at = 0;
  for (int t = 0; t < 64; ++t) {
    mobile.step(1.0, rng);
    cache.update(dyn.apply(mobile.nodes(), mobile.moved_last_step()));
    if (t == 23) {
      cache.corrupt_slot_for_testing(victim);
      corrupted = true;
      corrupted_at = wd.steps() + 1;
    }
    const bool ok = wd.on_step(cache.last_update_event());
    if (!corrupted) {
      EXPECT_TRUE(ok) << "false positive before injection at step " << t;
    }
    if (!wd.clean()) break;
  }

  ASSERT_FALSE(wd.clean()) << "corruption was never detected";
  EXPECT_LE(wd.last_mismatch_step() - corrupted_at, wd.config().period)
      << "detection took more than one sampling period";
  const auto& bad = wd.last_mismatched_relays();
  EXPECT_NE(std::find(bad.begin(), bad.end(), victim), bad.end())
      << "watchdog barked but did not name the corrupted relay";
}

TEST(CacheWatchdogTest, CorruptionHelperFlipsBothSlotShapes) {
  // The test-only corruptor must disturb populated and empty slots alike,
  // else watchdog tests could silently pick an un-corruptible victim.
  std::vector<net::Node> nodes{
      {0, {0.0, 0.0}, 5.0},  // dominates 1: skyline forwarding set empty
      {1, {1.0, 0.0}, 2.0},
      {2, {4.0, 0.0}, 2.0}};
  net::DynamicDiskGraph dyn{std::vector<net::Node>(nodes)};
  sim::ThreadPool pool(1);
  SkylineCache cache(dyn, pool);

  ASSERT_GT(cache.forwarding_set(1).size(), 0u);
  const auto before = cache.forwarding_set(1).size();
  cache.corrupt_slot_for_testing(1);
  EXPECT_EQ(cache.forwarding_set(1).size(), before - 1);

  ASSERT_EQ(cache.forwarding_set(0).size(), 0u);
  cache.corrupt_slot_for_testing(0);
  EXPECT_EQ(cache.forwarding_set(0).size(), 1u);
}

}  // namespace
}  // namespace mldcs::bcast
