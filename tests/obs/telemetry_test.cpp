// Tests for the telemetry registry: counter/gauge/histogram semantics,
// bucket boundaries, name identity, snapshots, and multi-threaded updates
// (the latter is what the TSan CI job exercises for data races).

#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "sim/thread_pool.hpp"

namespace mldcs::obs {
namespace {

TEST(CounterTest, AddAndValue) {
  Registry r;
  Counter& c = r.counter("c");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddAndHighWaterMark) {
  Registry r;
  Gauge& g = r.gauge("g");
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
  g.set_max(100);
  g.set_max(50);  // below the mark: no effect
  EXPECT_EQ(g.value(), 100);
}

TEST(HistogramTest, CountSumAndSnapshotExtremes) {
  Registry r;
  Histogram& h = r.histogram("h");
  h.record(0);
  h.record(1);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1001u);

  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 1001.0 / 3.0);
  // 0, 1, and 1000 land in three distinct log buckets.
  ASSERT_EQ(s.buckets.size(), 3u);
  EXPECT_EQ(s.buckets[0].lo, 0u);
  EXPECT_EQ(s.buckets[0].hi, 0u);
  EXPECT_EQ(s.buckets[1].lo, 1u);
  EXPECT_EQ(s.buckets[1].hi, 1u);
  EXPECT_LE(s.buckets[2].lo, 1000u);
  EXPECT_GE(s.buckets[2].hi, 1000u);
  for (const auto& b : s.buckets) EXPECT_EQ(b.count, 1u);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Registry r;
  const HistogramSnapshot s = r.histogram("empty").snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);  // not the ~0 sentinel
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(s.buckets.empty());
}

TEST(HistogramTest, BucketBoundaries) {
  // bucket 0 = {0}; bucket b >= 1 = [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    // Round trip: every bucket's own bounds map back to it, and the
    // ranges tile the uint64 line with no gaps.
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b);
    if (b > 0) {
      EXPECT_EQ(Histogram::bucket_lo(b), Histogram::bucket_hi(b - 1) + 1);
    }
  }
  EXPECT_EQ(Histogram::bucket_hi(64),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(HistogramTest, MaxValueSample) {
  Registry r;
  Histogram& h = r.histogram("h");
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  h.record(big);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, big);
  EXPECT_EQ(s.max, big);
  ASSERT_EQ(s.buckets.size(), 1u);
  EXPECT_EQ(s.buckets[0].hi, big);
}

TEST(RegistryTest, SameNameSameObject) {
  Registry r;
  EXPECT_EQ(&r.counter("a"), &r.counter("a"));
  EXPECT_NE(&r.counter("a"), &r.counter("b"));
  EXPECT_EQ(&r.gauge("a"), &r.gauge("a"));
  EXPECT_EQ(&r.histogram("a"), &r.histogram("a"));
  // Kinds are separate namespaces: counter "a" and gauge "a" coexist.
  r.counter("a").add(5);
  r.gauge("a").set(-5);
  EXPECT_EQ(r.counter("a").value(), 5u);
  EXPECT_EQ(r.gauge("a").value(), -5);
}

TEST(RegistryTest, SnapshotSortedAndConsistent) {
  Registry r;
  r.counter("z.last").add(1);
  r.counter("a.first").add(2);
  r.gauge("mid").set(3);
  r.histogram("dist").record(7);

  const RegistrySnapshot s = r.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a.first");
  EXPECT_EQ(s.counters[0].second, 2u);
  EXPECT_EQ(s.counters[1].first, "z.last");
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].second, 3);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].second.count, 1u);
}

TEST(RegistryTest, ResetZeroesButKeepsReferencesValid) {
  Registry r;
  Counter& c = r.counter("c");
  Histogram& h = r.histogram("h");
  c.add(9);
  h.record(9);
  r.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.add(1);  // the cached reference still points at the live metric
  EXPECT_EQ(r.counter("c").value(), 1u);
  // A reset histogram accepts new samples with a fresh min.
  h.record(3);
  EXPECT_EQ(h.snapshot().min, 3u);
}

TEST(RegistryTest, ConcurrentUpdatesAreExact) {
  // Hammer one counter/gauge/histogram from every pool worker; relaxed
  // atomics must still produce exact totals (and TSan must stay quiet).
  Registry r;
  Counter& c = r.counter("c");
  Gauge& hwm = r.gauge("hwm");
  Histogram& h = r.histogram("h");
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 1000;
  sim::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    for (std::uint64_t k = 0; k < kPerTask; ++k) {
      c.add();
      h.record(k);
      hwm.set_max(static_cast<std::int64_t>(i * kPerTask + k));
    }
  });
  EXPECT_EQ(c.value(), kTasks * kPerTask);
  EXPECT_EQ(h.count(), kTasks * kPerTask);
  EXPECT_EQ(h.snapshot().max, kPerTask - 1);
  EXPECT_EQ(hwm.value(),
            static_cast<std::int64_t>(kTasks * kPerTask - 1));
}

TEST(RegistryTest, ConcurrentRegistrationYieldsOneMetricPerName) {
  Registry r;
  sim::ThreadPool pool(4);
  pool.parallel_for(32, [&](std::size_t) { r.counter("shared").add(); });
  const RegistrySnapshot s = r.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].second, 32u);
}

TEST(GlobalRegistryTest, IsASingleton) {
  EXPECT_EQ(&registry(), &registry());
}

}  // namespace
}  // namespace mldcs::obs
