/// \file mldcs_e2e.cpp
/// End-to-end benchmark program: the Chapter 5 pipeline (mobility ->
/// forwarding sets -> broadcast) timed as one step and split by layer.
///
/// One process runs one workload.  Seeded random-waypoint mobility is the
/// input: `MobileNetwork::step` runs outside the timed region.  A step is
/// the library's graph/cache update (`DynamicDiskGraph::apply` +
/// `SkylineCache::update`, or the fused `ShardedSkylineCache::step`) plus
/// the workload's broadcasts, delivered here over the cached forwarding
/// sets with the exact semantics of `simulate_broadcast(..., kSkyline,
/// kBidirectionalLink)`.  For `static_1k` a step is one whole trial of the
/// paper's evaluation loop.  The loop is closed: the next step starts when
/// the previous one has finished.
///
/// Every oracle step rebuilds the topology and forwarding sets from
/// scratch and compares them with what the step produced; any mismatch
/// makes the process exit non-zero after it has written its JSON.
///
///   mldcs_e2e --workload W --seed N --seconds S --json OUT
///             [--trace CHROME_TRACE_OUT] [--smoke] [--inject-fault]
///
/// With --trace, spans recorded around each layer call give the per-layer
/// timings; without it only whole steps are timed.  Counts appear in every
/// run.  README.md lists the metrics and why each workload exists.

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/broadcast_sim.hpp"
#include "broadcast/forwarding.hpp"
#include "broadcast/sharded_cache.hpp"
#include "broadcast/skyline_cache.hpp"
#include "geometry/simd.hpp"
#include "net/disk_graph.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/mobility.hpp"
#include "net/sharded_engine.hpp"
#include "net/topology.hpp"
#include "obs/shard_stats.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "support/alloc_guard.hpp"

#ifndef MLDCS_E2E_BUILD_TYPE
#define MLDCS_E2E_BUILD_TYPE "unknown"
#endif
#ifndef MLDCS_E2E_BUILD_FLAGS
#define MLDCS_E2E_BUILD_FLAGS "unknown"
#endif

namespace {

using namespace mldcs;
using net::NodeId;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t allocs() { return test::allocation_count(); }

double as_d(std::uint64_t v) { return static_cast<double>(v); }

/// Linear-interpolated quantile of `v` (copied, so callers keep order).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double vm_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Library-independent calibration loop: a fixed integer/floating-point
/// kernel, so a slow host phase is visible in the run document and is not
/// mistaken for a slow change.
double calibration_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xFFFF) * 1e-9;
  }
  volatile double sink = acc;
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

// --- In-memory spans ---------------------------------------------------------

enum Span : std::uint8_t {
  kStep,
  kNetApply,
  kShardedStep,
  kUpdate,
  kDeliver,
  kBuild,
  kSweep,
  kSimSkyline,
  kSimFlooding,
  kMobility,
  kOracleBuild,
  kOracleSweep,
  kOracleCompare,
  kOracleSim,
  kSpanCount
};

constexpr std::array<std::string_view, kSpanCount> kSpanName = {
    "step",           "net.apply",          "broadcast.sharded_step",
    "broadcast.update", "broadcast.deliver", "net.build",
    "broadcast.sweep", "broadcast.sim.skyline", "broadcast.sim.flooding",
    "net.mobility",   "oracle.build",       "oracle.sweep",
    "oracle.compare", "oracle.sim"};

/// Spans kept in memory and written out at exit.  Disarmed, open/close
/// are a branch each.  Spans nest strictly, so the open span is the parent
/// of the next one opened.
class Tracer {
 public:
  struct Record {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t step = 0;
    std::int32_t parent = -1;
    Span name = kStep;
  };

  /// Start recording (after warm-up, so only measured steps are traced).
  void arm() {
    spans_.reserve(std::size_t{1} << 19);
    on_ = true;
  }

  std::int32_t open(Span name, std::uint64_t step) {
    if (!on_) return -1;
    spans_.push_back(
        {now_ns(), 0, static_cast<std::uint32_t>(step), open_, name});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    Record& r = spans_[static_cast<std::size_t>(id)];
    r.end = now_ns();
    open_ = r.parent;
  }

  [[nodiscard]] std::span<const Record> spans() const noexcept {
    return spans_;
  }

 private:
  bool on_ = false;
  std::int32_t open_ = -1;
  std::vector<Record> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, Span name, std::uint64_t step)
      : t_(t), id_(t.open(name, step)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

// --- Workloads ---------------------------------------------------------------

enum class Kind { kSingle, kSharded, kStatic };

struct Workload {
  std::string_view name;
  Kind kind;
  std::size_t nodes;     ///< target deployment size; the square scales with it
  net::WaypointParams move;
  std::size_t broadcasts;       ///< per step
  std::uint64_t oracle_every;   ///< steps between from-scratch oracles
  int setup_reps;               ///< setup_s is the median of this many
  int warmup_steps;
};

// Why each workload exists is recorded in README.md.
const Workload kWorkloads[] = {
    {"quasi_static_1k", Kind::kSingle, 1000, {0.02, 0.1, 2000.0, 1.0, true},
     16, 50, 20, 20},
    {"high_speed_1k", Kind::kSingle, 1000, {0.5, 2.0, 0.0, 0.0, false}, 1, 50,
     20, 20},
    {"sharded_10k", Kind::kSharded, 10000, {0.1, 0.5, 2.0, 0.0, false}, 1, 25,
     5, 3},
    {"static_1k", Kind::kStatic, 1000, {}, 1, 50, 20, 3},
};

constexpr std::size_t kShards = 4;
constexpr std::uint64_t kMinSteps = 100;  ///< p90 keeps >= 10 samples above
constexpr std::uint64_t kSmokeSteps = 10;
constexpr double kHardStopSeconds = 120.0;  ///< never exceed the run cap

net::DeploymentParams deployment_for(const Workload& w) {
  net::DeploymentParams p;
  p.model = net::RadiusModel::kUniform;
  p.target_avg_degree = 36.8;
  p.side = 12.5 * std::sqrt(static_cast<double>(w.nodes) / 1000.0);
  return p;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string json_path;
  std::string trace_path;
  bool smoke = false;
  bool inject_fault = false;
};

// --- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool end_to_end;
  bool deterministic;
};

class Report {
 public:
  void e2e(std::string name, double v, std::string unit,
           bool deterministic = false) {
    m_.push_back({std::move(name), v, std::move(unit), true, deterministic});
  }
  void layer(std::string name, double v, std::string unit) {
    m_.push_back({std::move(name), v, std::move(unit), false, false});
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return m_;
  }

 private:
  std::vector<Metric> m_;
};

// --- Broadcast delivery over cached forwarding sets ---------------------------

/// Replays simulate_broadcast(g, source, kSkyline, kBidirectionalLink) over
/// any topology exposing neighbors(u) and forwarding_set(u): FIFO
/// transmission order, a node re-transmits once iff it received the message
/// and some sender named it.  All buffers are sized once; runs allocate
/// nothing.
class Delivery {
 public:
  explicit Delivery(std::size_t n)
      : received_(n), designated_(n), transmitted_(n), hops_(n), queue_(n) {}

  template <typename Neighbors, typename Forwarders>
  bcast::BroadcastResult run(NodeId source, const Neighbors& neighbors,
                             const Forwarders& forwarding_set) {
    bcast::BroadcastResult r;
    const std::size_t n = received_.size();
    if (source >= n) return r;

    // Reachability (the delivery-ratio denominator): BFS over the graph.
    std::fill(received_.begin(), received_.end(), std::uint8_t{0});
    std::size_t head = 0;
    std::size_t tail = 0;
    queue_[tail++] = source;
    received_[source] = 1;
    while (head < tail) {
      for (const NodeId v : neighbors(queue_[head++])) {
        if (!received_[v]) {
          received_[v] = 1;
          queue_[tail++] = v;
        }
      }
    }
    r.reachable = tail;

    std::fill(received_.begin(), received_.end(), std::uint8_t{0});
    std::fill(designated_.begin(), designated_.end(), std::uint8_t{0});
    std::fill(transmitted_.begin(), transmitted_.end(), std::uint8_t{0});
    head = tail = 0;
    received_[source] = designated_[source] = 1;
    hops_[source] = 0;
    queue_[tail++] = source;
    r.delivered = 1;
    while (head < tail) {
      const NodeId u = queue_[head++];
      if (transmitted_[u]) continue;
      transmitted_[u] = 1;
      ++r.transmissions;
      // Both lists are ascending and the forwarding set is a subset of the
      // neighbors, so one merge pointer answers "is v named?".
      const std::span<const NodeId> fwd = forwarding_set(u);
      std::size_t f = 0;
      for (const NodeId v : neighbors(u)) {
        while (f < fwd.size() && fwd[f] < v) ++f;
        const bool named = f < fwd.size() && fwd[f] == v;
        if (!received_[v]) {
          received_[v] = 1;
          hops_[v] = hops_[u] + 1;
          ++r.delivered;
          r.max_hops = std::max(r.max_hops, hops_[v]);
        } else {
          ++r.redundant_receptions;
        }
        if (named && !designated_[v]) {
          designated_[v] = 1;
          if (!transmitted_[v]) queue_[tail++] = v;
        }
      }
    }
    return r;
  }

 private:
  std::vector<std::uint8_t> received_;
  std::vector<std::uint8_t> designated_;
  std::vector<std::uint8_t> transmitted_;
  std::vector<std::uint64_t> hops_;
  std::vector<NodeId> queue_;  ///< every node is queued at most once
};

// --- Oracle ------------------------------------------------------------------

/// From-scratch checks of a step's output.  Reference sets are copied into
/// the bench's own buffer before comparison; --inject-fault corrupts that
/// copy once, which proves the oracle fires.
class Oracle {
 public:
  explicit Oracle(bool inject_fault) : inject_pending_(inject_fault) {}

  void begin_check() { failures_at_begin_ = failures; }
  void end_check() {
    ++checks;
    if (failures != failures_at_begin_) ++failed_checks;
  }

  /// One relay: cached set byte-equal to the reference, arc count equal,
  /// and the Lemma 8 bound: at most 2(deg+1) skyline arcs.
  void relay(std::span<const NodeId> got, std::span<const NodeId> want,
             std::uint32_t arcs, std::size_t want_arcs, std::size_t degree) {
    ref_.assign(want.begin(), want.end());
    if (inject_pending_) {
      inject_pending_ = false;
      if (ref_.empty()) {
        ref_.push_back(net::kNoNode);
      } else {
        ref_.pop_back();
      }
    }
    const double bound = 2.0 * static_cast<double>(degree + 1);
    const bool ok = std::equal(got.begin(), got.end(), ref_.begin(),
                               ref_.end()) &&
                    arcs == want_arcs && arcs <= bound;
    ++comparisons;
    if (!ok) ++failures;
    arcs_sum += arcs;
    ++relays;
    max_lemma8 = std::max(max_lemma8, arcs / bound);
  }

  /// One broadcast: all five outcome fields equal.
  void delivery(const bcast::BroadcastResult& got,
                const bcast::BroadcastResult& want) {
    const bool ok = got.reachable == want.reachable &&
                    got.delivered == want.delivered &&
                    got.transmissions == want.transmissions &&
                    got.redundant_receptions == want.redundant_receptions &&
                    got.max_hops == want.max_hops;
    ++comparisons;
    if (!ok) ++failures;
  }

  std::uint64_t checks = 0;
  std::uint64_t failed_checks = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t failures = 0;
  double arcs_sum = 0.0;
  std::uint64_t relays = 0;
  double max_lemma8 = 0.0;

 private:
  bool inject_pending_;
  std::uint64_t failures_at_begin_ = 0;
  std::vector<NodeId> ref_;
};

// --- Per-run accumulators ------------------------------------------------------

struct Run {
  explicit Run(const Options& o)
      : opt(o), traced(!o.trace_path.empty()), oracle(o.inject_fault) {
    step_ns.reserve(std::size_t{1} << 17);
    busy_max_ns.reserve(std::size_t{1} << 17);
  }

  const Options& opt;
  bool traced;
  Tracer tracer;
  Oracle oracle;
  std::vector<double> setup_s;
  std::vector<double> step_ns;
  std::int64_t step_cpu_ns = 0;
  double rss_mb = 0.0;
  std::size_t nodes = 0;
  std::uint64_t quality_steps = 0;

  // Broadcast outcomes over the first quality_steps steps (deterministic
  // in the seed, however many steps the time budget allows).
  std::uint64_t q_broadcasts = 0;
  double q_tx = 0.0;
  double q_ratio = 0.0;
  double q_flood_tx = 0.0;

  // Counts over every timed step.
  std::uint64_t broadcasts = 0;
  double redundant = 0.0;
  double hops = 0.0;
  double movers = 0.0;
  double flips = 0.0;
  double dirty = 0.0;
  std::uint64_t apply_allocs = 0;
  std::uint64_t update_allocs = 0;
  std::uint64_t compactions = 0;
  double store_fill = 0.0;

  // Sharded engine, read after each step through obs::shard_stats().
  std::vector<obs::ShardStat> shard_stat;
  std::vector<double> busy_max_ns;
  double wait_ns = 0.0;
  double busy_capacity_ns = 0.0;
  double imbalance = 0.0;
  double halo = 0.0;
  std::uint64_t migrations = 0;

  [[nodiscard]] std::uint64_t steps() const noexcept { return step_ns.size(); }

  /// Closed-loop termination: at least kMinSteps samples, then until the
  /// time budget is spent (smoke runs: exactly kSmokeSteps).
  [[nodiscard]] bool more(std::uint64_t i, std::int64_t t_start) const {
    if (opt.smoke) return i < kSmokeSteps;
    const double elapsed = static_cast<double>(now_ns() - t_start) / 1e9;
    if (elapsed >= kHardStopSeconds) return false;
    return i < kMinSteps || elapsed < opt.seconds;
  }

  [[nodiscard]] bool oracle_step(std::uint64_t i, std::uint64_t every) const {
    return opt.smoke || i % every == 0;
  }

  void record_broadcast(std::uint64_t i, const bcast::BroadcastResult& r) {
    ++broadcasts;
    redundant += as_d(r.redundant_receptions);
    hops += as_d(r.max_hops);
    if (i < quality_steps) {
      ++q_broadcasts;
      q_tx += as_d(r.transmissions);
      q_ratio += r.delivery_ratio();
    }
  }
};

/// A from-scratch rebuild of the current positions.
struct Rebuild {
  net::DiskGraph graph;
  bcast::AllSkylines sets;
};

Rebuild rebuild(Run& run, std::span<const net::Node> nodes,
                sim::ThreadPool& pool, std::uint64_t step) {
  Rebuild rb;
  {
    const Scope s(run.tracer, kOracleBuild, step);
    rb.graph = net::DiskGraph::build({nodes.begin(), nodes.end()});
  }
  {
    const Scope s(run.tracer, kOracleSweep, step);
    rb.sets = bcast::compute_all_skylines(rb.graph, pool);
  }
  return rb;
}

// --- Mobility workloads ------------------------------------------------------

/// Single engine: DynamicDiskGraph::apply then SkylineCache::update.
class Single {
 public:
  Single(std::span<const net::Node> nodes, sim::ThreadPool& pool,
         const net::DeploymentParams& /*deploy*/)
      : graph_(std::vector<net::Node>(nodes.begin(), nodes.end())),
        cache_(graph_, pool) {}

  void step(Run& run, std::span<const net::Node> nodes,
            std::span<const NodeId> moved, std::uint64_t i) {
    const net::DynamicDiskGraph::StepDelta* delta = nullptr;
    {
      const Scope s(run.tracer, kNetApply, i);
      const std::uint64_t a0 = allocs();
      delta = &graph_.apply(nodes, moved);
      run.apply_allocs += allocs() - a0;
    }
    {
      const Scope s(run.tracer, kUpdate, i);
      const std::uint64_t a0 = allocs();
      cache_.update(*delta);
      run.update_allocs += allocs() - a0;
    }
  }

  void after_step(Run& run) {
    const auto& d = graph_.last_delta();
    run.flips += as_d(d.edges_added + d.edges_removed);
    run.dirty += as_d(cache_.last_dirty().size());
  }

  void finish(Run& run) {
    run.compactions = cache_.compaction_count();
    run.store_fill = as_d(cache_.total_forwarders()) /
                     as_d(std::max<std::size_t>(cache_.store_size(), 1));
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    return graph_.neighbors(u);
  }
  [[nodiscard]] const bcast::SkylineCache& cache() const { return cache_; }

 private:
  net::DynamicDiskGraph graph_;
  bcast::SkylineCache cache_;
};

/// Sharded engine: the fused ShardedSkylineCache::step on kShards tiles.
class Sharded {
 public:
  Sharded(std::span<const net::Node> nodes, sim::ThreadPool& pool,
          const net::DeploymentParams& deploy)
      : engine_(std::vector<net::Node>(nodes.begin(), nodes.end()), pool,
                config(deploy)),
        cache_(engine_) {}

  void step(Run& run, std::span<const net::Node> nodes,
            std::span<const NodeId> moved, std::uint64_t i) {
    const Scope s(run.tracer, kShardedStep, i);
    const std::uint64_t a0 = allocs();
    cache_.step(nodes, moved);
    run.update_allocs += allocs() - a0;
  }

  void after_step(Run& run) {
    for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
      const auto& d = engine_.shard_delta(s);
      run.flips += as_d(d.edges_added + d.edges_removed);
    }
    run.dirty += as_d(cache_.last_dirty_count());
    run.halo += engine_.halo_fraction();

    obs::shard_stats(run.shard_stat);
    std::uint64_t busy = 0;
    std::uint64_t wait = 0;
    std::uint64_t dirty_max = 0;
    std::uint64_t dirty_sum = 0;
    for (const obs::ShardStat& st : run.shard_stat) {
      busy = std::max(busy, st.step_ns);
      wait += st.barrier_wait_ns;
      dirty_max = std::max(dirty_max, st.dirty);
      dirty_sum += st.dirty;
    }
    const double shards = as_d(run.shard_stat.size());
    run.busy_max_ns.push_back(as_d(busy));
    run.wait_ns += as_d(wait);
    run.busy_capacity_ns += as_d(busy) * shards;
    if (dirty_sum > 0) run.imbalance += as_d(dirty_max) * shards / as_d(dirty_sum);
  }

  void finish(Run& run) {
    run.migrations = engine_.migration_count();
    std::size_t store = 0;
    for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
      run.compactions += cache_.shard(s).compaction_count();
      store += cache_.shard(s).store_size();
    }
    run.store_fill = as_d(cache_.total_forwarders()) /
                     as_d(std::max<std::size_t>(store, 1));
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    return engine_.shard_graph(engine_.owner_of(u)).neighbors(u);
  }
  [[nodiscard]] const bcast::ShardedSkylineCache& cache() const {
    return cache_;
  }

 private:
  static net::ShardedEngine::Config config(const net::DeploymentParams& p) {
    net::ShardedEngine::Config c;
    c.shards = kShards;
    c.deployment = {{0.0, 0.0}, {p.side, p.side}};
    return c;
  }

  net::ShardedEngine engine_;
  bcast::ShardedSkylineCache cache_;
};

template <typename Engine>
void run_mobility(Run& run, const Workload& w, sim::ThreadPool& pool) {
  const net::DeploymentParams deploy = deployment_for(w);
  sim::Xoshiro256 move_rng(sim::derive_seed(run.opt.seed, 0));
  sim::Xoshiro256 source_rng(sim::derive_seed(run.opt.seed, 1));
  net::MobileNetwork mobile(deploy, w.move, move_rng);
  const std::size_t n = mobile.nodes().size();
  run.nodes = n;

  // Set-up: engine + cache construction, the generator excluded.
  std::optional<Engine> engine;
  const int reps = run.opt.smoke ? 1 : w.setup_reps;
  for (int r = 0; r < reps; ++r) {
    engine.reset();
    const std::int64_t t0 = now_ns();
    engine.emplace(mobile.nodes(), pool, deploy);
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Delivery delivery(n);
  const auto neighbors = [&](NodeId u) { return engine->neighbors(u); };
  const auto forwarders = [&](NodeId u) {
    return engine->cache().forwarding_set(u);
  };
  std::vector<NodeId> sources(w.broadcasts);
  std::vector<bcast::BroadcastResult> results(w.broadcasts);
  const auto draw_sources = [&] {
    for (NodeId& s : sources) {
      s = static_cast<NodeId>(source_rng.uniform_int(n));
    }
  };

  for (int t = 0; t < (run.opt.smoke ? 0 : w.warmup_steps); ++t) {
    mobile.step(1.0, move_rng);
    draw_sources();
    engine->step(run, mobile.nodes(), mobile.moved_last_step(), 0);
    for (const NodeId s : sources) (void)delivery.run(s, neighbors, forwarders);
  }
  run.apply_allocs = run.update_allocs = 0;  // scratch growth is warm-up

  // The 5-field simulate_broadcast comparison costs a whole per-transmitter
  // LocalView sweep; on the sharded workload it runs on the first and the
  // final check only.
  const bool sim_every_check = w.nodes <= 1000;
  const auto check = [&](std::uint64_t i, bool with_sim) {
    run.oracle.begin_check();
    const Rebuild rb = rebuild(run, mobile.nodes(), pool, i);
    {
      const Scope s(run.tracer, kOracleCompare, i);
      const auto& cache = engine->cache();
      for (NodeId u = 0; u < n; ++u) {
        run.oracle.relay(cache.forwarding_set(u), rb.sets.forwarding_set(u),
                         cache.arc_count(u), rb.sets.arc_count(u),
                         rb.graph.degree(u));
      }
    }
    if (with_sim) {
      const Scope s(run.tracer, kOracleSim, i);
      run.oracle.delivery(results[0],
                          bcast::simulate_broadcast(rb.graph, sources[0],
                                                    bcast::Scheme::kSkyline));
    }
    run.oracle.end_check();
  };

  run.quality_steps = run.opt.smoke ? kSmokeSteps : kMinSteps;
  if (run.traced) run.tracer.arm();
  const std::int64_t t_start = now_ns();
  std::uint64_t i = 0;
  bool last_checked = false;
  for (; run.more(i, t_start); ++i) {
    {
      const Scope s(run.tracer, kMobility, i);
      mobile.step(1.0, move_rng);
    }
    draw_sources();

    const std::int64_t c0 = cpu_ns();
    const std::int64_t t0 = now_ns();
    {
      const Scope s(run.tracer, kStep, i);
      engine->step(run, mobile.nodes(), mobile.moved_last_step(), i);
      const Scope d(run.tracer, kDeliver, i);
      for (std::size_t b = 0; b < sources.size(); ++b) {
        results[b] = delivery.run(sources[b], neighbors, forwarders);
      }
    }
    const std::int64_t t1 = now_ns();
    run.step_cpu_ns += cpu_ns() - c0;
    run.step_ns.push_back(static_cast<double>(t1 - t0));

    run.movers += as_d(mobile.moved_last_step().size());
    engine->after_step(run);
    for (const auto& r : results) run.record_broadcast(i, r);
    last_checked = run.oracle_step(i, w.oracle_every);
    if (last_checked) check(i, sim_every_check || i == 0);
  }
  run.rss_mb = vm_rss_mb();
  // The final state is always checked, with the delivery comparison.
  if (!last_checked || !sim_every_check) check(i - 1, true);
  engine->finish(run);
}

// --- static_1k: the paper's evaluation loop ------------------------------------

void run_static(Run& run, const Workload& w, sim::ThreadPool& pool) {
  const net::DeploymentParams deploy = deployment_for(w);
  sim::Xoshiro256 rng(sim::derive_seed(run.opt.seed, 0));

  // Set-up: the forwarding sets of one fresh deployment, built from scratch
  // (the only state this workload has).
  {
    const std::vector<net::Node> first = net::generate_deployment(deploy, rng);
    run.nodes = first.size();
    const int reps = run.opt.smoke ? 1 : w.setup_reps;
    for (int r = 0; r < reps; ++r) {
      std::vector<net::Node> copy = first;
      const std::int64_t t0 = now_ns();
      const net::DiskGraph g = net::DiskGraph::build(std::move(copy));
      const bcast::AllSkylines sets = bcast::compute_all_skylines(g, pool);
      run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  }

  Delivery delivery(run.nodes);
  net::DiskGraph g;
  bcast::AllSkylines sets;
  bcast::BroadcastResult sky;
  bcast::BroadcastResult flood;
  const auto trial = [&](std::vector<net::Node> nodes, std::uint64_t i) {
    const Scope s(run.tracer, kStep, i);
    {
      const Scope l(run.tracer, kBuild, i);
      g = net::DiskGraph::build(std::move(nodes));
    }
    {
      const Scope l(run.tracer, kSweep, i);
      sets = bcast::compute_all_skylines(g, pool);
    }
    {
      const Scope l(run.tracer, kSimSkyline, i);
      sky = bcast::simulate_broadcast(g, 0, bcast::Scheme::kSkyline);
    }
    {
      const Scope l(run.tracer, kSimFlooding, i);
      flood = bcast::simulate_broadcast(g, 0, bcast::Scheme::kFlooding);
    }
  };

  for (int t = 0; t < (run.opt.smoke ? 0 : w.warmup_steps); ++t) {
    trial(net::generate_deployment(deploy, rng), 0);
  }

  run.quality_steps = run.opt.smoke ? kSmokeSteps : kMinSteps;
  if (run.traced) run.tracer.arm();
  const std::int64_t t_start = now_ns();
  for (std::uint64_t i = 0; run.more(i, t_start); ++i) {
    std::vector<net::Node> nodes;
    {
      const Scope s(run.tracer, kMobility, i);
      nodes = net::generate_deployment(deploy, rng);
    }
    const std::int64_t c0 = cpu_ns();
    const std::int64_t t0 = now_ns();
    trial(std::move(nodes), i);
    const std::int64_t t1 = now_ns();
    run.step_cpu_ns += cpu_ns() - c0;
    run.step_ns.push_back(static_cast<double>(t1 - t0));

    run.record_broadcast(i, sky);
    if (i < run.quality_steps) run.q_flood_tx += as_d(flood.transmissions);
    if (!run.oracle_step(i, w.oracle_every)) continue;

    // Oracle: the batch sweep against the per-relay LocalView path, and
    // delivery over the sweep's sets against simulate_broadcast.
    run.oracle.begin_check();
    {
      const Scope s(run.tracer, kOracleCompare, i);
      for (NodeId u = 0; u < g.size(); ++u) {
        const std::vector<NodeId> want =
            bcast::forwarding_set(g, u, bcast::Scheme::kSkyline);
        run.oracle.relay(sets.forwarding_set(u), want,
                         static_cast<std::uint32_t>(sets.arc_count(u)),
                         sets.arc_count(u), g.degree(u));
      }
    }
    {
      const Scope s(run.tracer, kOracleSim, i);
      run.oracle.delivery(
          delivery.run(
              0, [&](NodeId u) { return g.neighbors(u); },
              [&](NodeId u) { return sets.forwarding_set(u); }),
          sky);
    }
    run.oracle.end_check();
  }
  run.rss_mb = vm_rss_mb();
}

// --- Reporting -----------------------------------------------------------------

struct LayerTimes {
  std::array<std::vector<double>, kSpanCount> dur_ms;
  std::array<double, kSpanCount> total_ns{};
  std::array<double, kSpanCount> self_ns{};
  std::vector<double> apply_update_ns;  ///< per step
  std::vector<double> sharded_ns;       ///< per step
  std::vector<double> rebuild_ns;       ///< per step, oracle steps only
};

LayerTimes layer_times(const Tracer& tr, std::uint64_t steps) {
  LayerTimes lt;
  lt.apply_update_ns.assign(steps, 0.0);
  lt.sharded_ns.assign(steps, 0.0);
  lt.rebuild_ns.assign(steps, 0.0);
  const auto spans = tr.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end - s.start);
    }
  }
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const auto& s = spans[k];
    const double d = static_cast<double>(s.end - s.start);
    lt.dur_ms[s.name].push_back(d / 1e6);
    lt.total_ns[s.name] += d;
    lt.self_ns[s.name] += d - child_ns[k];
    if (s.step >= steps) continue;
    switch (s.name) {
      case kNetApply:
      case kUpdate:
        lt.apply_update_ns[s.step] += d;
        break;
      case kShardedStep:
        lt.sharded_ns[s.step] += d;
        break;
      case kOracleBuild:
      case kOracleSweep:
        lt.rebuild_ns[s.step] += d;
        break;
      default:
        break;
    }
  }
  return lt;
}

/// Layers inside a step, in the order they are printed.
constexpr Span kStepLayers[] = {kNetApply,   kShardedStep, kUpdate,
                                kDeliver,    kBuild,       kSweep,
                                kSimSkyline, kSimFlooding};

void build_report(Report& rep, const Run& run, const Workload& w,
                  std::size_t pool_size, double& unattributed) {
  const double steps = as_d(run.steps());
  const double n = as_d(run.nodes);
  const double wall_ns = std::max(1.0, [&] {
    double s = 0.0;
    for (const double v : run.step_ns) s += v;
    return s;
  }());
  std::vector<double> step_ms;
  step_ms.reserve(run.step_ns.size());
  for (const double v : run.step_ns) step_ms.push_back(v / 1e6);

  // End to end.
  rep.e2e("step_ms_p50", quantile(step_ms, 0.5), "ms");
  rep.e2e("step_ms_p90", quantile(step_ms, 0.9), "ms");
  rep.e2e("steps_per_s", steps * 1e9 / wall_ns, "1/s");
  rep.e2e("setup_s", median(run.setup_s), "s");
  rep.e2e("rss_mb", run.rss_mb, "MB");
  const double qb = as_d(std::max<std::uint64_t>(run.q_broadcasts, 1));
  rep.e2e("tx_per_broadcast", run.q_tx / qb, "count", true);
  rep.e2e("delivery_ratio", run.q_ratio / qb, "ratio", true);
  rep.e2e("error_rate",
          as_d(run.oracle.failures) /
              as_d(std::max<std::uint64_t>(run.oracle.comparisons, 1)),
          "ratio", true);

  // Counts, in every run.
  const double bc = as_d(std::max<std::uint64_t>(run.broadcasts, 1));
  const bool sharded = w.kind == Kind::kSharded;
  const auto per_step = [&](double v) { return v / std::max(steps, 1.0); };
  rep.layer("net.movers_per_step", per_step(run.movers), "count");
  rep.layer("net.edge_flips_per_step", per_step(run.flips), "count");
  rep.layer("net.allocs_per_apply", per_step(as_d(run.apply_allocs)),
            "count");
  rep.layer("broadcast.allocs_per_update", per_step(as_d(run.update_allocs)),
            "count");
  rep.layer("broadcast.dirty_fraction", per_step(run.dirty) / n, "ratio");
  rep.layer("broadcast.compactions", as_d(run.compactions) * 1000.0 /
                                         std::max(steps, 1.0),
            "1/kstep");
  rep.layer("broadcast.store_fill", run.store_fill, "ratio");
  rep.layer("broadcast.redundant_rx_per_broadcast", run.redundant / bc,
            "count");
  rep.layer("broadcast.max_hops_mean", run.hops / bc, "count");
  rep.layer("broadcast.flooding_tx_per_broadcast",
            run.q_flood_tx /
                as_d(std::max<std::uint64_t>(run.quality_steps, 1)),
            "count");
  rep.layer("net.shard_busy_ms_max", median(run.busy_max_ns) / 1e6, "ms");
  rep.layer("net.shard_barrier_wait_share",
            run.busy_capacity_ns > 0 ? run.wait_ns / run.busy_capacity_ns : 0.0,
            "ratio");
  rep.layer("net.shard_dirty_imbalance", per_step(run.imbalance), "ratio");
  rep.layer("net.halo_fraction", per_step(run.halo), "ratio");
  rep.layer("net.migrations_per_step", per_step(as_d(run.migrations)),
            "count");
  rep.layer("core.arcs_per_relay",
            run.oracle.arcs_sum /
                as_d(std::max<std::uint64_t>(run.oracle.relays, 1)),
            "count");
  rep.layer("core.max_arcs_over_lemma8_bound", run.oracle.max_lemma8,
            "ratio");
  rep.layer("sim.cpu_util",
            static_cast<double>(run.step_cpu_ns) /
                (wall_ns * as_d(pool_size)),
            "ratio");

  if (!run.traced) return;

  // Timings, from the traced run only.
  const LayerTimes lt = layer_times(run.tracer, run.steps());
  const double step_total = std::max(1.0, lt.total_ns[kStep]);
  const auto p50 = [&](Span s) { return median(lt.dur_ms[s]); };
  const auto share = [&](Span s) { return lt.self_ns[s] / step_total; };
  rep.layer("net.apply_ms_p50", p50(kNetApply), "ms");
  rep.layer("net.apply_share", share(kNetApply), "ratio");
  rep.layer("net.mobility_ms_p50", p50(kMobility), "ms");
  rep.layer("net.build_ms_p50", p50(kBuild), "ms");
  rep.layer("broadcast.update_ms_p50", p50(kUpdate), "ms");
  rep.layer("broadcast.update_share", share(kUpdate), "ratio");
  rep.layer("broadcast.update_us_per_dirty_relay",
            run.dirty > 0 ? lt.total_ns[kUpdate] / 1e3 / run.dirty : 0.0,
            "us");
  rep.layer("broadcast.deliver_us_per_broadcast",
            lt.total_ns[kDeliver] / 1e3 / bc, "us");
  rep.layer("broadcast.deliver_share", share(kDeliver), "ratio");
  rep.layer("broadcast.sharded_step_ms_p50", p50(kShardedStep), "ms");
  rep.layer("broadcast.sweep_ms_p50", p50(kSweep), "ms");
  rep.layer("broadcast.sim_skyline_ms_p50", p50(kSimSkyline), "ms");
  rep.layer("broadcast.sim_flooding_ms_p50", p50(kSimFlooding), "ms");

  double serial = 0.0;
  double inc = 0.0;
  double full = 0.0;
  for (std::size_t i = 0; i < run.steps(); ++i) {
    if (sharded) serial += lt.sharded_ns[i] - run.busy_max_ns[i];
    if (lt.rebuild_ns[i] > 0.0) {
      inc += sharded ? lt.sharded_ns[i] : lt.apply_update_ns[i];
      full += lt.rebuild_ns[i];
    }
  }
  rep.layer("net.shard_serial_ms", per_step(serial) / 1e6, "ms");
  rep.layer("broadcast.incremental_vs_rebuild", full > 0 ? inc / full : 0.0,
            "ratio");
  unattributed = lt.self_ns[kStep] / step_total;

  std::fprintf(stderr, "  layer self time (share of step):\n");
  for (const Span s : kStepLayers) {
    if (lt.dur_ms[s].empty()) continue;
    std::fprintf(stderr, "    %-24s %10.2f ms  %6.2f%%\n",
                 std::string(kSpanName[s]).c_str(), lt.self_ns[s] / 1e6,
                 100.0 * share(s));
  }
  std::fprintf(stderr, "    %-24s %10.2f ms  %6.2f%%\n", "(step, unattributed)",
               lt.self_ns[kStep] / 1e6, 100.0 * unattributed);
}

std::FILE* open_or_exit(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  return f;
}

void close_or_exit(std::FILE* f, const std::string& path) {
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "error: writing %s failed\n", path.c_str());
    std::exit(2);
  }
}

void write_chrome_trace(const Tracer& tr, const std::string& path) {
  std::FILE* f = open_or_exit(path);
  const auto spans = tr.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const auto& s = spans[k];
    const std::string_view name = kSpanName[s.name];
    std::fprintf(f,
                 "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%u,"
                 "\"parent\":%d}}\n",
                 k == 0 ? "" : ",", static_cast<int>(name.size()),
                 name.data(), static_cast<double>(s.start - origin) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3, s.step, s.parent);
  }
  std::fprintf(f, "]}\n");
  close_or_exit(f, path);
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void write_json(const std::string& path, const Options& o, const Run& run,
                const Report& rep, std::size_t pool_size, double calib0,
                double calib1, double unattributed) {
  std::FILE* f = open_or_exit(path);
  std::fprintf(f, "{\n  \"schema\": \"mldcs-e2e-v1\",\n");
  std::fprintf(f, "  \"workload\": \"%.*s\",\n",
               static_cast<int>(o.workload->name.size()),
               o.workload->name.data());
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(o.seed));
  std::fprintf(f, "  \"seconds\": %.17g,\n", o.seconds);
  std::fprintf(f, "  \"smoke\": %s,\n  \"traced\": %s,\n",
               o.smoke ? "true" : "false",
               run.traced ? "true" : "false");
  std::fprintf(f, "  \"inject_fault\": %s,\n",
               o.inject_fault ? "true" : "false");
  std::fprintf(f,
               "  \"provenance\": {\"compiler\": \"%s\", \"build_type\": "
               "\"%s\", \"build_flags\": \"%s\", \"simd_compiled\": %s, "
               "\"detected_isa\": \"%s\", \"dispatch\": \"%s\", "
               "\"hardware_concurrency\": %u, \"pool_size\": %zu},\n",
               compiler_id().c_str(), MLDCS_E2E_BUILD_TYPE,
               MLDCS_E2E_BUILD_FLAGS,
               geom::simd::simd_compiled() ? "true" : "false",
               geom::simd::detected_isa(), geom::simd::dispatch_choice(),
               std::thread::hardware_concurrency(), pool_size);
  std::fprintf(f, "  \"calib_ms\": {\"start\": %.17g, \"end\": %.17g},\n",
               calib0, calib1);
  std::fprintf(f,
               "  \"nodes\": %zu,\n  \"samples\": %llu,\n"
               "  \"broadcasts_per_step\": %zu,\n  \"quality_steps\": %llu,\n",
               run.nodes, static_cast<unsigned long long>(run.steps()),
               o.workload->broadcasts,
               static_cast<unsigned long long>(
                   std::min(run.quality_steps, run.steps())));
  std::fprintf(f,
               "  \"oracle\": {\"checks\": %llu, \"failed_checks\": %llu, "
               "\"comparisons\": %llu, \"failures\": %llu},\n",
               static_cast<unsigned long long>(run.oracle.checks),
               static_cast<unsigned long long>(run.oracle.failed_checks),
               static_cast<unsigned long long>(run.oracle.comparisons),
               static_cast<unsigned long long>(run.oracle.failures));
  if (run.traced) {
    std::fprintf(f, "  \"trace\": {\"unattributed_share\": %.17g},\n",
                 unattributed);
  }
  std::fprintf(f, "  \"metrics\": {");
  const auto& ms = rep.metrics();
  for (std::size_t k = 0; k < ms.size(); ++k) {
    const Metric& m = ms[k];
    std::fprintf(f,
                 "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                 "\"kind\": \"%s\", \"deterministic\": %s}",
                 k == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str(),
                 m.end_to_end ? "end_to_end" : "per_layer",
                 m.deterministic ? "true" : "false");
  }
  std::fprintf(f, "\n  }\n}\n");
  close_or_exit(f, path);
}

int usage() {
  std::fprintf(stderr,
               "usage: mldcs_e2e --workload W --seed N --seconds S --json OUT "
               "[--trace TRACE_OUT] [--smoke] [--inject-fault]\nworkloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--inject-fault") {
      o.inject_fault = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      const std::string_view name = argv[++a];
      for (const Workload& w : kWorkloads) {
        if (w.name == name) o.workload = &w;
      }
    } else if (arg == "--seed") {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++a], &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(argv[++a], &end);
      if (*end != '\0') return usage();
    } else if (arg == "--json") {
      o.json_path = argv[++a];
    } else if (arg == "--trace") {
      o.trace_path = argv[++a];
    } else {
      return usage();
    }
  }
  if (o.workload == nullptr || o.json_path.empty() || !(o.seconds > 0.0)) {
    return usage();
  }
  const Workload& w = *o.workload;

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  sim::ThreadPool pool(std::min<std::size_t>(hw, 4));
  const double calib0 = calibration_ms();

  Run run(o);
  switch (w.kind) {
    case Kind::kSingle:
      run_mobility<Single>(run, w, pool);
      break;
    case Kind::kSharded:
      run_mobility<Sharded>(run, w, pool);
      break;
    case Kind::kStatic:
      run_static(run, w, pool);
      break;
  }

  Report rep;
  double unattributed = 0.0;
  std::fprintf(stderr,
               "mldcs_e2e %.*s seed %llu: %llu steps, %zu nodes, pool %zu\n",
               static_cast<int>(w.name.size()), w.name.data(),
               static_cast<unsigned long long>(o.seed),
               static_cast<unsigned long long>(run.steps()), run.nodes,
               pool.size());
  build_report(rep, run, w, pool.size(), unattributed);
  const double calib1 = calibration_ms();
  write_json(o.json_path, o, run, rep, pool.size(), calib0, calib1,
             unattributed);
  if (run.traced) write_chrome_trace(run.tracer, o.trace_path);

  if (run.oracle.failures > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu of %llu oracle comparisons failed (%llu of %llu "
                 "checks)\n",
                 static_cast<unsigned long long>(run.oracle.failures),
                 static_cast<unsigned long long>(run.oracle.comparisons),
                 static_cast<unsigned long long>(run.oracle.failed_checks),
                 static_cast<unsigned long long>(run.oracle.checks));
    return 1;
  }
  return 0;
}
