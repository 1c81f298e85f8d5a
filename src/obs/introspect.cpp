#include "obs/introspect.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/export.hpp"
#include "obs/profiler.hpp"
#include "obs/run_outputs.hpp"
#include "obs/shard_stats.hpp"

namespace mldcs::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 4096;
constexpr std::size_t kDefaultEventTail = 256;
constexpr std::size_t kMaxEventTail = 1'000'000;
constexpr std::uint64_t kMaxProfileSeconds = 30;
constexpr int kPollTickMs = 200;

void send_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // peer went away; nothing to salvage
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void send_response(int fd, int status, const char* status_text,
                   const char* content_type, const std::string& body) {
  std::ostringstream head;
  head << "HTTP/1.0 " << status << ' ' << status_text << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n";
  const std::string h = head.str();
  send_all(fd, h.data(), h.size());
  send_all(fd, body.data(), body.size());
}

/// `/shards` body, schema `mldcs-shards-v1`: the same per-shard table the
/// blackbox embeds in heartbeat frames, as one standalone document.
std::string shards_body() {
  std::vector<ShardStat> stats;
  const std::uint64_t step = shard_stats(stats);
  std::ostringstream os;
  os << "{\"schema\":\"mldcs-shards-v1\",\"step\":" << step
     << ",\"count\":" << stats.size() << ",\"shards\":[";
  bool first = true;
  for (const ShardStat& s : stats) {
    if (!first) os << ',';
    first = false;
    os << "{\"shard\":" << s.shard << ",\"owned\":" << s.owned
       << ",\"halo\":" << s.halo << ",\"incoming\":" << s.incoming
       << ",\"dirty\":" << s.dirty << ",\"step_ns\":" << s.step_ns
       << ",\"barrier_wait_ns\":" << s.barrier_wait_ns << '}';
  }
  os << "]}\n";
  return os.str();
}

/// The value of `key` in `target`'s query: the text after `=` of the first
/// `&`-separated pair whose key is exactly `key` ("" when it has no `=`),
/// nullopt when no pair has that key.
std::optional<std::string_view> query_value(std::string_view target,
                                            std::string_view key) {
  const std::size_t q = target.find('?');
  if (q == std::string_view::npos) return std::nullopt;
  std::string_view rest = target.substr(q + 1);
  for (;;) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (pair.substr(0, eq) == key) {
      return eq == std::string_view::npos ? std::string_view{}
                                          : pair.substr(eq + 1);
    }
    if (amp == std::string_view::npos) return std::nullopt;
    rest.remove_prefix(amp + 1);
  }
}

/// `key`'s number in `target`'s query, clamped to [lo, hi]: `fallback`
/// when the key is absent, nullopt when its value is not a decimal.
std::optional<std::uint64_t> query_number(std::string_view target,
                                          std::string_view key,
                                          std::uint64_t fallback,
                                          std::uint64_t lo, std::uint64_t hi) {
  const std::optional<std::string_view> text = query_value(target, key);
  if (!text) return fallback;
  const std::optional<std::uint64_t> value =
      parse_decimal(*text, std::numeric_limits<std::uint64_t>::max());
  if (!value) return std::nullopt;
  return std::clamp(*value, lo, hi);
}

constexpr const char* kIndexBody =
    "mldcs introspection endpoints:\n"
    "  /metrics                 Prometheus text exposition\n"
    "  /snapshot.json           mldcs-telemetry-v1 registry snapshot\n"
    "  /events?tail=N           mldcs-events-v1 tail (default 256)\n"
    "  /shards                  mldcs-shards-v1 per-shard load table\n"
    "  /profile?seconds=N       mldcs-profile-v1 sampled window\n"
    "      &format=folded|json  (default folded; blocks for the window)\n"
    "  /healthz                 watchdog verdict\n";

}  // namespace

namespace detail {

std::optional<std::size_t> events_tail(std::string_view target) {
  return query_number(target, "tail", kDefaultEventTail, 0, kMaxEventTail);
}

std::optional<ProfileQuery> profile_query(std::string_view target) {
  const std::optional<std::uint64_t> seconds =
      query_number(target, "seconds", 1, 1, kMaxProfileSeconds);
  const std::string_view format =
      query_value(target, "format").value_or("folded");
  if (!seconds || (format != "folded" && format != "json")) {
    return std::nullopt;
  }
  return ProfileQuery{static_cast<double>(*seconds), format == "json"};
}

}  // namespace detail

IntrospectServer::~IntrospectServer() { stop(); }

bool IntrospectServer::start(const Options& options, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    return fail("introspect server already running");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return fail("bad host: " + options.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string msg = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return fail(msg);
  }
  if (::listen(fd, 16) < 0) {
    const std::string msg = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return fail(msg);
  }
  sockaddr_in bound = {};
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) < 0) {
    const std::string msg = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return fail(msg);
  }

  listen_fd_ = fd;
  registry_ = options.registry != nullptr ? options.registry : &registry();
  requests_.store(0, std::memory_order_relaxed);
  stop_requested_.store(false, std::memory_order_release);
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
  return true;
}

void IntrospectServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_.store(0, std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

void IntrospectServer::set_health(HealthFn fn) {
  const std::scoped_lock lock(health_mu_);
  health_ = std::move(fn);
}

void IntrospectServer::serve() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd p = {};
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, kPollTickMs);
    if (r <= 0) continue;  // tick (or EINTR): re-check the stop flag
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    timeval tv = {};
    tv.tv_sec = 2;  // a stalled client must not wedge the responder
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    handle_connection(client);
    ::close(client);
  }
}

void IntrospectServer::handle_connection(int client_fd) {
  char buf[kMaxRequestBytes];
  std::size_t have = 0;
  // Read until the header terminator; HTTP/1.0 GETs have no body.
  while (have < sizeof(buf) - 1) {
    const ssize_t r = ::recv(client_fd, buf + have, sizeof(buf) - 1 - have, 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      break;
    }
    have += static_cast<std::size_t>(r);
    buf[have] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  if (have == 0) return;
  buf[have] = '\0';
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Request line: METHOD SP TARGET SP VERSION.
  const std::string_view req(buf, have);
  const std::size_t sp1 = req.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : req.find(' ', sp1 + 1);
  const std::size_t eol = req.find_first_of("\r\n");
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      (eol != std::string_view::npos && sp2 > eol)) {
    send_response(client_fd, 400, "Bad Request", "text/plain",
                  "bad request\n");
    return;
  }
  const std::string method(req.substr(0, sp1));
  const std::string target(req.substr(sp1 + 1, sp2 - sp1 - 1));
  if (method != "GET") {
    send_response(client_fd, 405, "Method Not Allowed", "text/plain",
                  "GET only\n");
    return;
  }
  const std::string path = target.substr(0, target.find('?'));

  if (path == "/metrics") {
    std::ostringstream os;
    write_prometheus_text(os, *registry_);
    send_response(client_fd, 200, "OK", "text/plain; version=0.0.4",
                  os.str());
  } else if (path == "/snapshot.json") {
    std::ostringstream os;
    write_snapshot_json(os, *registry_);
    send_response(client_fd, 200, "OK", "application/json", os.str());
  } else if (path == "/events") {
    const std::optional<std::size_t> tail = detail::events_tail(target);
    if (!tail) {
      send_response(client_fd, 400, "Bad Request", "text/plain",
                    "bad query\n");
      return;
    }
    std::ostringstream os;
    write_events_jsonl_tail(os, *tail);
    send_response(client_fd, 200, "OK", "application/jsonl", os.str());
  } else if (path == "/shards") {
    send_response(client_fd, 200, "OK", "application/json", shards_body());
  } else if (path == "/profile") {
    // Deliberate exception to "never block": the *server thread* sleeps
    // for the sampled window (1..30 s, bounded); the simulation threads
    // only carry the armed profiler's sampling cost.
    const std::optional<detail::ProfileQuery> query =
        detail::profile_query(target);
    if (!query) {
      send_response(client_fd, 400, "Bad Request", "text/plain",
                    "bad query\n");
      return;
    }
    const ProfileReport report =
        profiler_capture_window(query->seconds, ProfilerConfig{});
    std::ostringstream os;
    if (query->json) {
      write_profile_json(os, report);
    } else {
      write_profile_folded(os, report);
    }
    send_response(client_fd, 200, "OK",
                  query->json ? "application/json" : "text/plain", os.str());
  } else if (path == "/healthz") {
    HealthFn health;
    {
      const std::scoped_lock lock(health_mu_);
      health = health_;
    }
    std::string detail;
    const bool ok = health ? health(detail) : true;
    if (detail.empty()) detail = ok ? "ok" : "unhealthy";
    detail.push_back('\n');
    send_response(client_fd, ok ? 200 : 503,
                  ok ? "OK" : "Service Unavailable", "text/plain", detail);
  } else if (path == "/") {
    send_response(client_fd, 200, "OK", "text/plain", kIndexBody);
  } else {
    send_response(client_fd, 404, "Not Found", "text/plain", "not found\n");
  }
}

}  // namespace mldcs::obs
