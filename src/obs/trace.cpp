#include "obs/trace.hpp"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>

#include "core/annotations.hpp"
#include "obs/thread_record.hpp"

namespace mldcs::obs {

namespace detail {
std::atomic<bool> g_trace_armed{false};
}  // namespace detail

namespace {

std::atomic<std::int64_t> g_epoch_ns{0};
std::atomic<std::uint64_t> g_dropped{0};

}  // namespace

void trace_start() {
  std::int64_t expected = 0;
  // First start fixes the epoch; restarts keep it so event timestamps from
  // separate start/stop windows stay on one timeline.
  g_epoch_ns.compare_exchange_strong(expected, clock_ns(),
                                     std::memory_order_relaxed);
  (void)detail::this_thread_rec();
  const std::scoped_lock lock(detail::g_registry_mu);
  for (detail::ThreadRec* rec = detail::thread_recs(); rec != nullptr;
       rec = rec->next) {
    if (rec->alive.load(std::memory_order_relaxed)) {
      detail::ensure_span_ring(*rec);
    }
  }
  // Armed under the lock: a thread registering from here on sees the flag
  // and brings its own ring.
  detail::g_trace_armed.store(true, std::memory_order_relaxed);
}

void trace_stop() {
  detail::g_trace_armed.store(false, std::memory_order_relaxed);
}

bool trace_enabled() noexcept {
  return detail::g_trace_armed.load(std::memory_order_relaxed);
}

// Alloc-exempt: a registered thread (every pool worker and engine caller)
// only stores into its preallocated ring; only a thread's very first armed
// span, outside any step, registers it and allocates.
MLDCS_ALLOC_OK void Scope::record(Phase p, std::int64_t t0_ns) noexcept {
  const std::int64_t t1 = clock_ns();
  detail::ThreadRec& rec = detail::this_thread_rec();
  detail::SpanSlot* ring = rec.spans.load(std::memory_order_acquire);
  const std::uint64_t head = rec.span_head.load(std::memory_order_relaxed);
  if (ring == nullptr ||
      head - rec.span_tail.load(std::memory_order_acquire) >=
          kTraceRingSlots) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;  // full, or this thread sees no ring yet: drop
  }
  ring[head & (kTraceRingSlots - 1)] = {
      t0_ns - g_epoch_ns.load(std::memory_order_relaxed), t1 - t0_ns, p};
  rec.span_head.store(head + 1, std::memory_order_release);
}

// Flush and clear are the rings' one consumer side: the registry lock
// keeps them from interleaving.
void write_trace_json(std::ostream& os) {
  const std::scoped_lock lock(detail::g_registry_mu);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (detail::ThreadRec* rec = detail::thread_recs(); rec != nullptr;
       rec = rec->next) {
    const detail::SpanSlot* ring = rec->spans.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = rec->span_head.load(std::memory_order_acquire);
    for (std::uint64_t t = rec->span_tail.load(std::memory_order_relaxed);
         t < head; ++t) {
      const detail::SpanSlot& e = ring[t & (kTraceRingSlots - 1)];
      if (!first) os << ",";
      first = false;
      // chrome://tracing wants microsecond timestamps; fractional values
      // keep the ns resolution.
      os << "{\"name\":\"" << phase_name(e.phase)
         << "\",\"cat\":\"mldcs\",\"ph\":\"X\",\"pid\":0,\"tid\":"
         << rec->index << ",\"ts\":" << static_cast<double>(e.t0_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3 << "}";
    }
    rec->span_tail.store(head, std::memory_order_release);
  }
  os << "],\"otherData\":{\"dropped_spans\":"
     << g_dropped.exchange(0, std::memory_order_relaxed) << "}}\n";
}

void trace_clear() {
  const std::scoped_lock lock(detail::g_registry_mu);
  for (detail::ThreadRec* rec = detail::thread_recs(); rec != nullptr;
       rec = rec->next) {
    rec->span_tail.store(rec->span_head.load(std::memory_order_acquire),
                         std::memory_order_release);
  }
  g_dropped.store(0, std::memory_order_relaxed);
}

}  // namespace mldcs::obs
