// Tests for the generic ConsistencyWatchdog: period gating, distinct
// sampling, mismatch verdicts against a mutable fake store, and the
// watchdog.* metrics and causally linked events it reports through.

#include "obs/watchdog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/telemetry.hpp"

namespace mldcs::obs {
namespace {

/// A fake incremental structure: `truth` is the reference, `cache` the
/// maintained copy.  Tests corrupt `cache` entries to trigger the dog.
struct FakeStore {
  std::vector<std::vector<std::uint32_t>> truth;
  std::vector<std::vector<std::uint32_t>> cache;

  explicit FakeStore(std::size_t n) : truth(n), cache(n) {
    for (std::uint32_t u = 0; u < n; ++u) {
      truth[u] = {u, u + 1};
      cache[u] = truth[u];
    }
  }

  ConsistencyWatchdog watchdog(ConsistencyWatchdog::Config cfg) {
    return {truth.size(), [this](std::uint32_t u) { return truth[u]; },
            [this](std::uint32_t u) { return cache[u]; }, cfg};
  }
};

class WatchdogTest : public ::testing::Test {
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

TEST_F(WatchdogTest, ChecksOnlyEveryPeriodthStep) {
  FakeStore store(32);
  auto wd = store.watchdog({.period = 4, .samples = 2, .seed = 1});
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(wd.on_step());
  }
  EXPECT_EQ(wd.steps(), 12u);
  EXPECT_EQ(wd.checks(), 3u);
  EXPECT_EQ(wd.sampled(), 6u);
  EXPECT_TRUE(wd.clean());
}

TEST_F(WatchdogTest, ZeroPeriodMeansEveryStep) {
  FakeStore store(8);
  auto wd = store.watchdog({.period = 0, .samples = 1, .seed = 1});
  EXPECT_TRUE(wd.on_step());
  EXPECT_TRUE(wd.on_step());
  EXPECT_EQ(wd.checks(), 2u);
}

TEST_F(WatchdogTest, SamplesAreDistinctAndClampedToPopulation) {
  FakeStore store(3);
  // Ask for far more samples than relays: must clamp to 3 distinct, not
  // spin forever rejecting duplicates.
  auto wd = store.watchdog({.period = 1, .samples = 100, .seed = 7});
  EXPECT_TRUE(wd.on_step());
  EXPECT_EQ(wd.sampled(), 3u);
}

TEST_F(WatchdogTest, CorruptedEntryIsCaughtAndNamed) {
  FakeStore store(16);
  // Sampling all 16 every step makes detection deterministic.
  auto wd = store.watchdog({.period = 1, .samples = 16, .seed = 3});
  EXPECT_TRUE(wd.on_step());

  store.cache[5].push_back(99);  // corrupt
  EXPECT_FALSE(wd.on_step());
  EXPECT_FALSE(wd.clean());
  EXPECT_EQ(wd.mismatches(), 1u);
  EXPECT_EQ(wd.last_mismatch_step(), 2u);
  ASSERT_EQ(wd.last_mismatched_relays().size(), 1u);
  EXPECT_EQ(wd.last_mismatched_relays()[0], 5u);

  store.cache[5] = store.truth[5];  // repair
  EXPECT_TRUE(wd.on_step());
  EXPECT_TRUE(wd.last_mismatched_relays().empty());
  EXPECT_EQ(wd.mismatches(), 1u) << "history is cumulative";
  EXPECT_FALSE(wd.clean()) << "clean() never forgets a mismatch";
}

TEST_F(WatchdogTest, CheckNowIgnoresThePeriodPhase) {
  FakeStore store(8);
  auto wd = store.watchdog({.period = 1000, .samples = 8, .seed = 5});
  store.cache[2] = {};  // corrupt before any step
  EXPECT_FALSE(wd.check_now());
  EXPECT_EQ(wd.checks(), 1u);
  EXPECT_EQ(wd.steps(), 0u);
}

TEST_F(WatchdogTest, EmptyPopulationIsVacuouslyClean) {
  FakeStore store(0);
  auto wd = store.watchdog({.period = 1, .samples = 4, .seed = 1});
  EXPECT_TRUE(wd.on_step());
  EXPECT_EQ(wd.checks(), 0u);
  EXPECT_TRUE(wd.clean());
}

TEST_F(WatchdogTest, SamplingSequenceIsSeedDeterministic) {
  FakeStore a(64);
  FakeStore b(64);
  a.cache[13].push_back(1);
  b.cache[13].push_back(1);
  auto wa = a.watchdog({.period = 1, .samples = 8, .seed = 42});
  auto wb = b.watchdog({.period = 1, .samples = 8, .seed = 42});
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(wa.on_step(), wb.on_step()) << "step " << i;
  }
  EXPECT_EQ(wa.mismatches(), wb.mismatches());
  EXPECT_EQ(wa.last_mismatch_step(), wb.last_mismatch_step());
}

TEST_F(WatchdogTest, ReportsThroughMetricsAndCausallyLinkedEvents) {
  auto& reg = registry();
  const std::uint64_t checks0 = reg.counter("watchdog.checks").value();
  const std::uint64_t sampled0 = reg.counter("watchdog.sampled_relays").value();
  const std::uint64_t bad0 = reg.counter("watchdog.mismatches").value();

  FakeStore store(16);
  store.cache[9] = {};  // corrupt
  auto wd = store.watchdog({.period = 1, .samples = 16, .seed = 11});

  events_start();
  const std::uint64_t parent =
      emit_event(EventType::kCacheUpdate, 3, kNoNode, kNoEvent, 1);
  EXPECT_FALSE(wd.on_step(parent));
  events_stop();

  EXPECT_EQ(reg.counter("watchdog.checks").value(), checks0 + 1);
  EXPECT_EQ(reg.counter("watchdog.sampled_relays").value(), sampled0 + 16);
  EXPECT_EQ(reg.counter("watchdog.mismatches").value(), bad0 + 1);
  EXPECT_EQ(reg.gauge("watchdog.last_mismatch_step").value(), 1);

  const auto events = events_snapshot();
  const auto check = std::find_if(
      events.begin(), events.end(),
      [](const Event& e) { return e.type == EventType::kWatchdogCheck; });
  ASSERT_NE(check, events.end());
  EXPECT_EQ(check->parent, parent) << "check must indict the cache update";
  EXPECT_EQ(check->a, 16u);  // sampled
  EXPECT_EQ(check->b, 1u);   // mismatches

  const auto bad = std::find_if(
      events.begin(), events.end(),
      [](const Event& e) { return e.type == EventType::kWatchdogMismatch; });
  ASSERT_NE(bad, events.end());
  EXPECT_EQ(bad->a, 9u);
  EXPECT_EQ(bad->parent, check->id);
}

TEST_F(WatchdogTest, VerdictApiWorksWithTelemetryDisarmed) {
  // The plain counters are the product here: they must work with the
  // event log not armed.
  FakeStore store(8);
  store.cache[0] = {1, 2, 3};
  auto wd = store.watchdog({.period = 2, .samples = 8, .seed = 9});
  EXPECT_TRUE(wd.on_step());   // step 1: no check
  EXPECT_FALSE(wd.on_step());  // step 2: check finds the corruption
  EXPECT_EQ(wd.last_mismatch_step(), 2u);
  EXPECT_FALSE(wd.clean());
}

}  // namespace
}  // namespace mldcs::obs
