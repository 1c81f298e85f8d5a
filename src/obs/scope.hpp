#pragma once

/// \file scope.hpp
/// The one instrumentation primitive.  `obs::Scope(Phase)` sets the
/// thread's profiler phase word (restoring the enclosing phase on exit, so
/// samples carry the innermost one) and, when tracing is armed at
/// construction, records a chrome-trace span named `phase_name(p)` into
/// the thread's span ring (trace.hpp).  Disarmed it costs two relaxed
/// thread-local stores and one relaxed load; armed, on a registered thread
/// (pool workers and engine callers register up front), it takes no lock
/// and allocates nothing — safe in MLDCS_HOT_PATH / MLDCS_NO_LOCK bodies,
/// and known to mldcs-analyze by name.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace mldcs::obs {

/// Phase vocabulary, shared by profiler samples and trace spans.  kNone is
/// the untagged default (startup, bench harness code, anything outside a
/// Scope); every sample carries exactly one phase, so per-phase counts
/// always sum to the total.
enum class Phase : std::uint32_t {
  kNone = 0,            ///< outside any scope
  kStepOwnership = 1,   ///< ShardedEngine step phase 1: ownership commit
  kShardStep = 2,       ///< step phase 2: one shard's apply + hook
  kHaloExchange = 3,    ///< phase 2 sub-span: routing movers into halos
  kCacheRecompute = 4,  ///< ShardCache / SkylineCache dirty-relay recompute
  kStepCommit = 5,      ///< step phase 3: position commit + telemetry
  kSimdKernel = 6,      ///< compute_skyline_arcs (SIMD kernel dispatch)
  kPoolIdle = 7,        ///< ThreadPool worker parked on the task queue
  kGraphApply = 8,      ///< DynamicDiskGraph::apply (whole plane or region)
  kEngineStep = 9,      ///< ShardedEngine::step, all three phases
  kCacheUpdate = 10,    ///< SkylineCache::update / ShardedSkylineCache::step
  kCachePatch = 11,     ///< SkylineCache serial store patch
  kCacheCompact = 12,   ///< SkylineCache store compaction
  kBroadcast = 13,      ///< simulate_broadcast
};

inline constexpr std::size_t kPhaseCount = 14;

/// Stable token for a phase ("shard_step", ...): the trace span name, the
/// folded-stack root frame and the profile JSON phase key.
/// Async-signal-safe (returns string literals).
[[nodiscard]] constexpr const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kNone:
      return "none";
    case Phase::kStepOwnership:
      return "step_ownership";
    case Phase::kShardStep:
      return "shard_step";
    case Phase::kHaloExchange:
      return "halo_exchange";
    case Phase::kCacheRecompute:
      return "cache_recompute";
    case Phase::kStepCommit:
      return "step_commit";
    case Phase::kSimdKernel:
      return "simd_kernel";
    case Phase::kPoolIdle:
      return "pool_idle";
    case Phase::kGraphApply:
      return "graph_apply";
    case Phase::kEngineStep:
      return "engine_step";
    case Phase::kCacheUpdate:
      return "cache_update";
    case Phase::kCachePatch:
      return "cache_patch";
    case Phase::kCacheCompact:
      return "cache_compact";
    case Phase::kBroadcast:
      return "broadcast";
  }
  return "none";
}

/// False for the sample-only phases: simd_kernel opens once per skyline
/// and pool_idle once per task wait, too often to trace.
[[nodiscard]] constexpr bool phase_traced(Phase p) noexcept {
  return p != Phase::kNone && p != Phase::kSimdKernel &&
         p != Phase::kPoolIdle;
}

/// Monotonic nanoseconds: the clock of trace spans, pool busy time and
/// per-shard step timing.
[[nodiscard]] inline std::int64_t clock_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace detail {
/// The per-thread phase word.  Constant-initialized (no TLS init guard),
/// so the SIGPROF handler's read is a plain thread-local atomic load.
extern thread_local constinit std::atomic<std::uint32_t> t_phase;
/// Set by trace_start / cleared by trace_stop.
extern std::atomic<bool> g_trace_armed;
}  // namespace detail

class Scope {
 public:
  explicit Scope(Phase p) noexcept
      : prev_(detail::t_phase.load(std::memory_order_relaxed)), phase_(p) {
    detail::t_phase.store(static_cast<std::uint32_t>(p),
                          std::memory_order_relaxed);
    if (phase_traced(p) &&
        detail::g_trace_armed.load(std::memory_order_relaxed)) {
      t0_ns_ = clock_ns();
    }
  }
  ~Scope() {
    if (t0_ns_ >= 0) record(phase_, t0_ns_);
    detail::t_phase.store(prev_, std::memory_order_relaxed);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  /// Append the completed span to the calling thread's ring (trace.cpp).
  static void record(Phase p, std::int64_t t0_ns) noexcept;

  std::uint32_t prev_;
  Phase phase_;
  std::int64_t t0_ns_ = -1;  ///< span start; -1 while untraced
};

}  // namespace mldcs::obs
