#pragma once

/// \file thread_record.hpp
/// Internal to src/obs (telemetry ON): the one per-thread record behind
/// the profiler's samples, Scope's trace spans and the event log.  A thread
/// registers on its first armed span or event, or via
/// profiler_register_thread.  On exit its record is retired, keeps its
/// buffered spans and events for the next flush, and goes to the next
/// thread that registers.  The registry is an append-only list (readers
/// need no lock); memory is bounded by the peak live thread count.

#include <pthread.h>
#include <sys/types.h>
#include <time.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

namespace mldcs::obs::detail {

inline constexpr std::size_t kMaxDepth = 32;
inline constexpr std::size_t kRingSlots = 256;  // power of two; ~66 KB

/// One profiler sample.  Every word is a relaxed atomic: the SIGPROF
/// handler publishes the slot by advancing `head` with release order, and
/// because the ring drops-when-full the drain thread never reads a slot
/// the handler could still be writing — no seqlock needed.
struct Sample {
  std::atomic<std::uint32_t> phase{0};
  std::atomic<std::uint32_t> depth{0};
  std::atomic<std::uintptr_t> pc[kMaxDepth] = {};
};

/// One completed trace span, timestamps relative to the trace epoch.
struct SpanSlot {
  std::int64_t t0_ns;
  std::int64_t dur_ns;
  Phase phase;
};

struct ThreadRec {
  // Identity: written under the registry lock, refreshed on reuse.
  std::uint32_t index = 0;    ///< registration order; the trace "tid"
  ThreadRec* next = nullptr;  ///< registry link, immutable once published
  pthread_t pth{};
  pid_t tid = 0;
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
  std::atomic<bool> alive{true};

  // Profiler: CPU-clock timer (under the registry lock) and the sample
  // ring, produced by the SIGPROF handler and drained by the drain thread.
  // The ring (kRingSlots samples) is allocated when the profiler first
  // starts the record's timer, so a thread never sampled never pays it.
  timer_t timer{};
  bool timer_active = false;
  std::atomic<std::uint64_t> head{0};  ///< handler-advanced, release
  std::atomic<std::uint64_t> tail{0};  ///< drain-advanced, release
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<Sample*> samples{nullptr};

  // Trace spans: the same drop-when-full ring (kTraceRingSlots, 768 KB),
  // allocated once tracing is armed while the record is live.
  std::atomic<SpanSlot*> spans{nullptr};
  std::atomic<std::uint64_t> span_head{0};  ///< owner-advanced, release
  std::atomic<std::uint64_t> span_tail{0};  ///< flush-advanced, release

  // Events: the mutex is only ever contended by an in-flight snapshot.
  std::mutex events_mu;
  std::vector<Event> events;
};

/// The calling thread's record, registering the thread on first use
/// (takes the registry lock; allocates unless a retired record is free).
ThreadRec& this_thread_rec();

/// Registry list head, newest first; records are never freed.
inline std::atomic<ThreadRec*> g_thread_recs{nullptr};
[[nodiscard]] inline ThreadRec* thread_recs() noexcept {
  return g_thread_recs.load(std::memory_order_acquire);
}

/// Guards registration, retirement, profiler arm/disarm, span-ring
/// allocation and span flushes.  Constant-initialized and trivially
/// destructible, so thread-exit hooks may take it during teardown.
inline std::mutex g_registry_mu;

/// Give `rec` span storage if it has none.  Caller holds g_registry_mu.
inline void ensure_span_ring(ThreadRec& rec) {
  if (rec.spans.load(std::memory_order_relaxed) == nullptr) {
    rec.spans.store(new SpanSlot[kTraceRingSlots], std::memory_order_release);
  }
}

}  // namespace mldcs::obs::detail
