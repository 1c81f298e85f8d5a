// Tests for the JSON and Prometheus snapshot exporters: schema fields,
// name sanitization, and histogram series shape.

#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"

namespace mldcs::obs {
namespace {

std::string to_json(const Registry& r) {
  std::ostringstream os;
  write_snapshot_json(os, r);
  return os.str();
}

std::string to_prometheus(const Registry& r) {
  std::ostringstream os;
  write_prometheus_text(os, r);
  return os.str();
}

TEST(PrometheusTest, EmptyRegistryEmitsNothing) {
  const Registry r;
  EXPECT_TRUE(to_prometheus(r).empty());
}

TEST(SnapshotJsonTest, EmptyRegistrySchema) {
  const Registry r;
  const std::string doc = to_json(r);
  EXPECT_NE(doc.find("\"schema\":\"mldcs-telemetry-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(doc.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\":{}"), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\":{}"), std::string::npos);
}

TEST(SnapshotJsonTest, MetricsSerialized) {
  Registry r;
  r.counter("cache.updates").add(3);
  r.gauge("cache.dead_permille").set(-12);
  r.histogram("cache.dirty").record(5);
  r.histogram("cache.dirty").record(5);

  const std::string doc = to_json(r);
  EXPECT_NE(doc.find("\"cache.updates\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"cache.dead_permille\":-12"), std::string::npos);
  EXPECT_NE(doc.find("\"count\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"sum\":10"), std::string::npos);
  EXPECT_NE(doc.find("\"min\":5"), std::string::npos);
  EXPECT_NE(doc.find("\"max\":5"), std::string::npos);
  EXPECT_NE(doc.find("\"buckets\":[{\"lo\":4,\"hi\":7,\"count\":2}]"),
            std::string::npos);
}

TEST(PrometheusTest, FamiliesTypedAndPrefixed) {
  Registry r;
  r.counter("skyline.calls").add(7);
  r.gauge("net.edge-flips").set(2);

  const std::string doc = to_prometheus(r);
  // Names sanitized (alnum-or-underscore) and prefixed with mldcs_.
  EXPECT_NE(doc.find("# TYPE mldcs_skyline_calls counter"),
            std::string::npos);
  EXPECT_NE(doc.find("mldcs_skyline_calls 7"), std::string::npos);
  EXPECT_NE(doc.find("# TYPE mldcs_net_edge_flips gauge"),
            std::string::npos);
  EXPECT_NE(doc.find("mldcs_net_edge_flips 2"), std::string::npos);
}

TEST(PrometheusTest, HistogramSeriesAreCumulative) {
  Registry r;
  Histogram& h = r.histogram("dist");
  h.record(1);   // bucket [1,1]
  h.record(6);   // bucket [4,7]
  h.record(6);

  const std::string doc = to_prometheus(r);
  EXPECT_NE(doc.find("# TYPE mldcs_dist histogram"), std::string::npos);
  // Cumulative counts: le="1" sees 1 sample, le="7" sees all 3.
  EXPECT_NE(doc.find("mldcs_dist_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(doc.find("mldcs_dist_bucket{le=\"7\"} 3"), std::string::npos);
  EXPECT_NE(doc.find("mldcs_dist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(doc.find("mldcs_dist_sum 13"), std::string::npos);
  EXPECT_NE(doc.find("mldcs_dist_count 3"), std::string::npos);
}

// Exporters under concurrent registration: writer threads registering and
// bumping fresh metrics while the main thread snapshots both formats in a
// loop.  The introspection server serves exactly this pattern (a scraper
// polling /metrics while the run registers late series), so the exporters
// must tolerate a registry that grows mid-scrape.  The assertions are
// deliberately weak — well-formed envelopes, all names present in the
// final snapshot — because the real verdict comes from the asan and tsan
// presets running this test.
TEST(ExportConcurrencyTest, RegistrationWhileExportingIsSafe) {
  Registry r;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 32;
  std::atomic<bool> go{false};

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&r, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::string stem =
            "stress.t" + std::to_string(t) + ".m" + std::to_string(i);
        r.counter(stem + ".c").add(i + 1);
        r.gauge(stem + ".g").set(static_cast<std::int64_t>(i));
        r.histogram(stem + ".h").record(i);
      }
    });
  }

  go.store(true, std::memory_order_release);
  for (int scrape = 0; scrape < 50; ++scrape) {
    std::ostringstream json;
    write_snapshot_json(json, r);
    const std::string doc = json.str();
    EXPECT_EQ(doc.front(), '{');
    EXPECT_NE(doc.find("\"schema\":\"mldcs-telemetry-v1\""),
              std::string::npos);
    std::ostringstream prom;
    write_prometheus_text(prom, r);
  }
  for (std::thread& w : writers) w.join();

  std::ostringstream final_json;
  write_snapshot_json(final_json, r);
  const std::string doc = final_json.str();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const std::string stem =
          "stress.t" + std::to_string(t) + ".m" + std::to_string(i);
      ASSERT_NE(doc.find("\"" + stem + ".c\":"), std::string::npos)
          << "registered counter lost: " << stem;
    }
  }
}

}  // namespace
}  // namespace mldcs::obs
