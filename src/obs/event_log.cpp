#include "obs/event_log.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <ostream>

#include "core/annotations.hpp"
#include "obs/thread_record.hpp"

namespace mldcs::obs {

const char* event_type_name(EventType t) noexcept {
  switch (t) {
    case EventType::kBroadcast:
      return "broadcast";
    case EventType::kTx:
      return "tx";
    case EventType::kRx:
      return "rx";
    case EventType::kDuplicateRx:
      return "dup_rx";
    case EventType::kDesignate:
      return "designate";
    case EventType::kSuppress:
      return "suppress";
    case EventType::kStep:
      return "step";
    case EventType::kCacheUpdate:
      return "cache_update";
    case EventType::kWatchdogCheck:
      return "watchdog_check";
    case EventType::kWatchdogMismatch:
      return "watchdog_mismatch";
    case EventType::kShardExchange:
      return "shard_exchange";
    case EventType::kHeartbeat:
      return "heartbeat";
    case EventType::kCrashDump:
      return "crash_dump";
  }
  return "unknown";
}

namespace {

// Events live in each thread's observability record (thread_record.hpp);
// only arming and the id sequence are global.  Trivially destructible, so
// emits during static teardown stay safe.
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{0};
std::atomic<std::uint64_t> g_capacity{kDefaultEventCapacity};
std::atomic<std::uint64_t> g_dropped{0};

void write_event_line(std::ostream& os, const Event& e) {
  os << "{\"id\":" << e.id << ",\"t\":\"" << event_type_name(e.type) << '"';
  if (e.a != kNoNode) os << ",\"a\":" << e.a;
  if (e.b != kNoNode) os << ",\"b\":" << e.b;
  if (e.parent != kNoEvent) os << ",\"parent\":" << e.parent;
  os << ",\"v\":" << e.value << "}\n";
}

}  // namespace

void events_start(std::size_t capacity) {
  g_capacity.store(capacity, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void events_stop() {
  g_enabled.store(false, std::memory_order_relaxed);
}

bool events_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

// Alloc-exempt: the disarmed emit is one relaxed load; the armed path
// buffers into the thread's record (bounded by events_start's capacity),
// and benches measure the skyline path events-disarmed at 0 allocs/op.
MLDCS_ALLOC_OK std::uint64_t emit_event(EventType type, std::uint32_t a,
                                        std::uint32_t b, std::uint64_t parent,
                                        std::uint64_t value) noexcept {
  if (!g_enabled.load(std::memory_order_relaxed)) return kNoEvent;
  const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (id >= g_capacity.load(std::memory_order_relaxed)) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return kNoEvent;
  }
  detail::ThreadRec& rec = detail::this_thread_rec();
  const std::lock_guard<std::mutex> lock(rec.events_mu);
  rec.events.push_back({id, parent, value, a, b, type});
  return id;
}

std::uint64_t events_dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

void events_clear() {
  for (detail::ThreadRec* rec = detail::thread_recs(); rec != nullptr;
       rec = rec->next) {
    const std::lock_guard<std::mutex> lock(rec->events_mu);
    rec->events.clear();
  }
  g_next_id.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
}

std::vector<Event> events_snapshot() {
  std::vector<Event> out;
  for (detail::ThreadRec* rec = detail::thread_recs(); rec != nullptr;
       rec = rec->next) {
    const std::lock_guard<std::mutex> lock(rec->events_mu);
    out.insert(out.end(), rec->events.begin(), rec->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Event& x, const Event& y) { return x.id < y.id; });
  return out;
}

void write_events_jsonl(std::ostream& os) {
  const std::vector<Event> events = events_snapshot();
  os << "{\"schema\":\"mldcs-events-v1\",\"enabled\":true,\"count\":"
     << events.size() << ",\"dropped\":" << events_dropped() << "}\n";
  for (const Event& e : events) write_event_line(os, e);
}

void write_events_jsonl_tail(std::ostream& os, std::size_t tail) {
  const std::vector<Event> events = events_snapshot();
  const std::size_t n = std::min(tail, events.size());
  os << "{\"schema\":\"mldcs-events-v1\",\"enabled\":"
     << (events_enabled() ? "true" : "false") << ",\"count\":" << n
     << ",\"dropped\":" << events_dropped() << "}\n";
  for (std::size_t i = events.size() - n; i < events.size(); ++i) {
    write_event_line(os, events[i]);
  }
}

}  // namespace mldcs::obs
