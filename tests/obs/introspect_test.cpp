// Tests for the live introspection server: endpoint routing and status
// codes over a raw HTTP/1.0 socket client, the /healthz verdict hook,
// eager shard-metric registration (a snapshot taken before the first
// step must already carry every shard.*/cache.* series), and concurrent
// polling of a live sharded run (the tsan leg's data-race probe).

#include "obs/introspect.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "broadcast/sharded_cache.hpp"
#include "net/mobility.hpp"
#include "net/sharded_engine.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::obs {
namespace {

/// One blocking HTTP request against 127.0.0.1:`port`; returns the whole
/// response (status line, headers, body) or "" on any socket failure.
std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

TEST(IntrospectServerTest, StartStopLifecycle) {
  IntrospectServer server;
  std::string error;
  ASSERT_TRUE(server.start({}, &error)) << error;
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);  // ephemeral bind resolved
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  server.stop();  // idempotent
}

TEST(IntrospectServerTest, DoubleStartFails) {
  IntrospectServer server;
  ASSERT_TRUE(server.start({}));
  std::string error;
  EXPECT_FALSE(server.start({}, &error));
  EXPECT_FALSE(error.empty());
  server.stop();
}

TEST(IntrospectServerTest, EndpointsServeTheirSchemas) {
  Registry r;
  r.counter("introspect.test_hits").add(3);

  IntrospectServer server;
  IntrospectServer::Options opt;
  opt.registry = &r;
  ASSERT_TRUE(server.start(opt));
  const std::uint16_t port = server.port();

  const std::string index = get(port, "/");
  EXPECT_NE(index.find("200 OK"), std::string::npos);
  EXPECT_NE(index.find("/snapshot.json"), std::string::npos);

  const std::string snapshot = get(port, "/snapshot.json");
  EXPECT_NE(snapshot.find("200 OK"), std::string::npos);
  EXPECT_NE(snapshot.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(snapshot.find("\"schema\":\"mldcs-telemetry-v1\""),
            std::string::npos);

  const std::string metrics = get(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(snapshot.find("\"introspect.test_hits\":3"),
            std::string::npos);
  EXPECT_NE(metrics.find("mldcs_introspect_test_hits 3"),
            std::string::npos);

  const std::string events = get(port, "/events?tail=4");
  EXPECT_NE(events.find("200 OK"), std::string::npos);
  EXPECT_NE(events.find("\"schema\":\"mldcs-events-v1\""),
            std::string::npos);

  const std::string shards = get(port, "/shards");
  EXPECT_NE(shards.find("200 OK"), std::string::npos);
  EXPECT_NE(shards.find("\"schema\":\"mldcs-shards-v1\""),
            std::string::npos);

  const std::string health = get(port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  EXPECT_NE(get(port, "/nope").find("404 Not Found"), std::string::npos);
  EXPECT_NE(http_request(port, "POST / HTTP/1.0\r\n\r\n")
                .find("405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(http_request(port, "garbage\r\n\r\n").find("400 Bad Request"),
            std::string::npos);

  EXPECT_GE(server.requests(), 9u);
  server.stop();
}

// Query values are read by exact key and parsed strictly: a key that only
// ends in `tail` is not `tail`, trailing text or an unknown format makes a
// value malformed, and a number out of range is clamped.
TEST(IntrospectQueryTest, KeysMatchExactlyAndValuesParseStrictly) {
  using Tail = std::optional<std::size_t>;
  EXPECT_EQ(detail::events_tail("/events"), Tail(256));
  EXPECT_EQ(detail::events_tail("/events?tail=12"), Tail(12));
  EXPECT_EQ(detail::events_tail("/events?tail=12abc"), std::nullopt);
  EXPECT_EQ(detail::events_tail("/events?tail="), std::nullopt);
  EXPECT_EQ(detail::events_tail("/events?tail=-3"), std::nullopt);
  EXPECT_EQ(detail::events_tail("/events?xtail=5"), Tail(256));
  EXPECT_EQ(detail::events_tail("/events?xtail=5&tail=7"), Tail(7));
  EXPECT_EQ(detail::events_tail("/events?tail=99999999"), Tail(1'000'000));

  const auto profile = [](const char* target) {
    return detail::profile_query(target);
  };
  ASSERT_TRUE(profile("/profile").has_value());
  EXPECT_EQ(profile("/profile")->seconds, 1.0);
  EXPECT_FALSE(profile("/profile")->json);
  EXPECT_EQ(profile("/profile?seconds=99")->seconds, 30.0);
  EXPECT_EQ(profile("/profile?seconds=0")->seconds, 1.0);
  ASSERT_TRUE(profile("/profile?format=json&seconds=2").has_value());
  EXPECT_EQ(profile("/profile?format=json&seconds=2")->seconds, 2.0);
  EXPECT_TRUE(profile("/profile?format=json&seconds=2")->json);
  EXPECT_FALSE(profile("/profile?format=folded")->json);
  EXPECT_FALSE(profile("/profile?format=jsonx").has_value());
  EXPECT_FALSE(profile("/profile?xformat=json")->json);
  EXPECT_FALSE(profile("/profile?seconds=2s").has_value());
}

// A malformed value is answered 400 before any work (a /profile request
// would otherwise block for its window).
TEST(IntrospectServerTest, MalformedQueryValuesAreBadRequests) {
  IntrospectServer server;
  ASSERT_TRUE(server.start({}));
  const std::uint16_t port = server.port();
  EXPECT_NE(get(port, "/events?tail=12abc").find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(get(port, "/profile?format=jsonx").find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(get(port, "/events?xtail=5").find("200 OK"), std::string::npos);
  server.stop();
}

TEST(IntrospectServerTest, HealthHookDrivesHealthz) {
  IntrospectServer server;
  ASSERT_TRUE(server.start({}));
  const std::uint16_t port = server.port();

  std::atomic<bool> healthy{true};
  server.set_health([&healthy](std::string& detail) {
    if (!healthy.load(std::memory_order_relaxed)) {
      detail = "watchdog mismatch at step 7";
      return false;
    }
    return true;
  });
  EXPECT_NE(get(port, "/healthz").find("200 OK"), std::string::npos);

  healthy.store(false, std::memory_order_relaxed);
  const std::string sick = get(port, "/healthz");
  EXPECT_NE(sick.find("503 Service Unavailable"), std::string::npos);
  EXPECT_NE(sick.find("watchdog mismatch at step 7"), std::string::npos);

  server.set_health(nullptr);  // revert to always-healthy
  EXPECT_NE(get(port, "/healthz").find("200 OK"), std::string::npos);
  server.stop();
}

// --- Against a live sharded engine -----------------------------------------

net::DeploymentParams small_deploy() {
  net::DeploymentParams p;
  p.target_avg_degree = 8.0;
  p.model = net::RadiusModel::kUniform;
  return p;
}

net::ShardedEngine::Config sharded(std::size_t shards, double side) {
  net::ShardedEngine::Config c;
  c.shards = shards;
  c.deployment = {{0.0, 0.0}, {side, side}};
  return c;
}

/// Satellite check: the engine and cache constructors must register every
/// shard.*/cache.* series eagerly, so a snapshot taken BEFORE the first
/// step already carries them (a scraper attaching at t=0 sees the full
/// schema, not a trickle of late-registered series).
TEST(IntrospectServerTest, PreStepSnapshotCarriesShardSeries) {
  sim::Xoshiro256 rng(17);
  net::MobileNetwork net(small_deploy(), net::WaypointParams{}, rng);
  sim::ThreadPool pool(2);
  net::ShardedEngine engine{std::vector<net::Node>(net.nodes()), pool,
                            sharded(4, 12.5)};
  bcast::ShardedSkylineCache cache(engine);

  IntrospectServer server;
  ASSERT_TRUE(server.start({}));
  const std::string snapshot = get(server.port(), "/snapshot.json");
  for (const char* series :
       {"\"shard.count\":4", "\"shard.steps\"", "\"shard.halo_nodes\"",
        "\"shard.barrier_wait_ns\"", "\"cache.updates\"",
        "\"cache.dirty_relays_per_shard\"", "\"cache.compactions\"",
        "\"cache.slot_overflows\"", "\"cache.store_size\"",
        "\"cache.live_ids\"", "\"cache.dead_permille\""}) {
    EXPECT_NE(snapshot.find(series), std::string::npos)
        << "pre-step snapshot is missing " << series;
  }

  // The load table is seeded from the initial ownership split, so
  // /shards is meaningful before step one as well.
  const std::string shards = get(server.port(), "/shards");
  EXPECT_NE(shards.find("\"count\":4"), std::string::npos);
  EXPECT_NE(shards.find("\"owned\":"), std::string::npos);
  server.stop();
}

/// A poller hammering every endpoint while the sharded engine steps:
/// the data-race probe the tsan preset runs.  The server must never
/// block or corrupt the run; the run must never corrupt a response.
TEST(IntrospectServerTest, ConcurrentPollingOfLiveShardedRun) {
  sim::Xoshiro256 rng(29);
  net::MobileNetwork net(small_deploy(), net::WaypointParams{}, rng);
  sim::ThreadPool pool(2);
  net::ShardedEngine engine{std::vector<net::Node>(net.nodes()), pool,
                            sharded(4, 12.5)};
  bcast::ShardedSkylineCache cache(engine);

  IntrospectServer server;
  ASSERT_TRUE(server.start({}));
  const std::uint16_t port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> polled{0};
  std::thread poller([&] {
    const char* paths[] = {"/shards", "/metrics", "/snapshot.json",
                           "/events?tail=8", "/healthz"};
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string response = get(port, paths[i % 5]);
      if (response.find("200 OK") != std::string::npos) {
        polled.fetch_add(1, std::memory_order_relaxed);
      }
      ++i;
    }
  });

  for (std::size_t k = 0; k < 40; ++k) {
    net.step(0.5, rng);
    cache.step(net.nodes(), net.moved_last_step());
  }
  stop.store(true, std::memory_order_relaxed);
  poller.join();

  EXPECT_GT(polled.load(), 0u);
  EXPECT_EQ(cache.update_count(), 40u);

  // A post-run /shards must report the published step and 4 rows.
  const std::string shards = get(port, "/shards");
  EXPECT_NE(shards.find("\"step\":40"), std::string::npos);
  EXPECT_NE(shards.find("\"count\":4"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace mldcs::obs
