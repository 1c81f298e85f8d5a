#pragma once

/// \file introspect.hpp
/// Live introspection server: a tiny single-threaded HTTP/1.0 responder
/// for polling a running engine — the operational front door the ROADMAP
/// item-4 query daemon will extend.
///
/// | endpoint         | body                                               |
/// |------------------|----------------------------------------------------|
/// | `/metrics`       | Prometheus text exposition (obs/export.hpp)        |
/// | `/snapshot.json` | `mldcs-telemetry-v1` registry snapshot             |
/// | `/events?tail=N` | `mldcs-events-v1` tail (default 256 events)        |
/// | `/shards`        | `mldcs-shards-v1` per-shard load/barrier table     |
/// | `/profile`       | `mldcs-profile-v1` sampled window (`?seconds=N`,   |
/// |                  | 1..30, `&format=folded\|json`; default folded)     |
/// | `/healthz`       | `200 ok` / `503 unhealthy` from the health hook    |
/// | `/`              | plain-text endpoint index                          |
///
/// Design constraints, in order:
///  - **Never block the simulation.**  The server owns one background
///    thread; requests read the same lock-light surfaces as offline
///    exporters (registry snapshot under the registration mutex, relaxed
///    shard-stat atomics, event buffers).  No request path touches engine
///    step state, and the step hot path acquires nothing for the server's
///    benefit — hot_path_guard stays green with a poller attached.  The
///    one deliberate carve-out is `/profile`: the *server thread* sleeps
///    for the sampled window (bounded at 30 s) while the profiler's
///    SIGPROF timers do the collection; concurrent requests queue behind
///    it (single-threaded responder), the simulation does not.
///  - **Boring on the wire.**  HTTP/1.0, `Connection: close`, one request
///    per connection, 200ms poll ticks so stop() returns promptly.  This
///    is an operational loopback port for curl/Prometheus/mldcs_top.py,
///    not a web server; it binds 127.0.0.1 by default.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/telemetry.hpp"

namespace mldcs::obs {

class IntrospectServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;        ///< 0 = ephemeral; read back via port()
    Registry* registry = nullptr;  ///< nullptr = the process-wide registry
  };

  /// Verdict hook behind `/healthz`: return true for healthy; `detail` is
  /// sent as the body ("ok"/"unhealthy" when left empty).  Called on the
  /// server thread — must be thread-safe and non-blocking.
  using HealthFn = std::function<bool(std::string& detail)>;

  IntrospectServer() = default;
  ~IntrospectServer();
  IntrospectServer(const IntrospectServer&) = delete;
  IntrospectServer& operator=(const IntrospectServer&) = delete;

  /// Bind, listen, and start the responder thread.  Returns false (with
  /// `*error` set when non-null) on bind/listen failure or double start.
  bool start(const Options& options, std::string* error = nullptr);

  /// Stop the responder thread and close the socket.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Bound port (resolves ephemeral binds); 0 when not running.
  [[nodiscard]] std::uint16_t port() const noexcept {
    return port_.load(std::memory_order_acquire);
  }
  /// Requests served since start(); for tests and idle-shutdown logic.
  [[nodiscard]] std::uint64_t requests() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Install/replace the `/healthz` verdict hook (pass nullptr to revert
  /// to always-healthy).  Safe to call while running.
  void set_health(HealthFn fn);

 private:
  void serve();
  void handle_connection(int client_fd);

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint16_t> port_{0};
  std::atomic<std::uint64_t> requests_{0};
  int listen_fd_ = -1;
  Registry* registry_ = nullptr;

  std::mutex health_mu_;
  HealthFn health_;
};

}  // namespace mldcs::obs
