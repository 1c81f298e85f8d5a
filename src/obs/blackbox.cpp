#include "obs/blackbox.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "obs/shard_stats.hpp"
#include "obs/telemetry.hpp"

namespace mldcs::obs {

namespace {

// ---------------------------------------------------------------------------
// Async-signal-safe primitives.  Everything the dump path touches is below
// this line or an atomic load: no malloc, no stdio, no locks.

/// write(2) the whole buffer, retrying EINTR; short writes keep going.
void safe_write(int fd, const char* p, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // nothing useful to do with a failing fd in a crash path
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Decimal-format v into buf (no terminator); returns the length.
std::size_t fmt_u64(char* buf, std::uint64_t v) noexcept {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void write_u64(int fd, std::uint64_t v) noexcept {
  char buf[20];
  safe_write(fd, buf, fmt_u64(buf, v));
}

/// strlen/memcpy stand-ins: byte loops, so the dump path provably calls
/// nothing outside the async-signal-safe set.
std::size_t safe_len(const char* s) noexcept {
  std::size_t n = 0;
  while (s[n] != '\0') ++n;
  return n;
}

void copy_bytes(char* dst, const char* src, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    default:
      return "signal";
  }
}

// ---------------------------------------------------------------------------
// Frame ring + recorder state.

/// Bounded in-place JSON builder for heartbeat frames and event tails.
/// Entries are written between mark()/rewind() pairs: an entry that would
/// overflow is rolled back whole, the writer is marked truncated, and the
/// caller stops that section — the buffer always holds balanced JSON.
class BoundedWriter {
 public:
  BoundedWriter(char* buf, std::size_t cap) noexcept : buf_(buf), cap_(cap) {}

  void str(const char* s) noexcept {
    const std::size_t n = safe_len(s);
    if (pos_ + n > cap_) {
      overflow_ = true;
      return;
    }
    copy_bytes(buf_ + pos_, s, n);
    pos_ += n;
  }
  void u64(std::uint64_t v) noexcept {
    char tmp[20];
    const std::size_t n = fmt_u64(tmp, v);
    if (pos_ + n > cap_) {
      overflow_ = true;
      return;
    }
    copy_bytes(buf_ + pos_, tmp, n);
    pos_ += n;
  }
  void i64(std::int64_t v) noexcept {
    if (v < 0) {
      str("-");
      u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }

  [[nodiscard]] std::size_t mark() const noexcept { return pos_; }
  void rewind(std::size_t m) noexcept {
    pos_ = m;
    overflow_ = false;
  }
  [[nodiscard]] bool overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::size_t size() const noexcept { return pos_; }
  void raise_cap(std::size_t cap) noexcept { cap_ = cap; }

 private:
  char* buf_;
  std::size_t cap_;
  std::size_t pos_ = 0;
  bool overflow_ = false;
};

constexpr std::size_t kFrameBytes = 4096;
constexpr std::size_t kFrameSuffixReserve = 32;  // ,"truncated":true}\n
constexpr std::size_t kTailBytes = 16384;
constexpr std::size_t kMaxFrames = 256;
constexpr std::size_t kMaxTail = 256;

/// One ring slot.  seq: 0 = never written, odd (2t+1) = ticket t being
/// written, even (2t+2) = ticket t published.  A reader copies the bytes
/// out and re-reads seq; any change means the copy is torn — skip it.
struct Frame {
  std::atomic<std::uint64_t> seq{0};
  std::uint32_t len = 0;
  char json[kFrameBytes] = {};
};

struct State {
  // Arm/heartbeat side (normal context only).
  std::mutex hb_mu;  ///< serializes arm/disarm/heartbeat; never on dump path
  std::vector<std::pair<std::string, std::uint64_t>> prev_counters;
  std::vector<ShardStat> shard_scratch;
  std::size_t event_tail_cap = 64;

  // Shared with the dump path (atomics + bytes published before them).
  std::atomic<bool> armed{false};
  std::atomic<int> dumping{0};  ///< collapses concurrent/reentrant dumps
  std::atomic<std::uint64_t> heartbeats{0};
  char path[512] = {};
  char header[768] = {};  ///< pre-serialized up to ...,"reason":"
  std::uint32_t header_len = 0;
  Frame* frames = nullptr;  ///< leaked ring; reused across rearms
  std::size_t nframes = 0;
  std::uint64_t ticket = 0;  ///< next heartbeat ticket, under hb_mu
  bool handlers_installed = false;
  struct sigaction prev_sa[3] = {};  ///< SIGSEGV, SIGABRT, SIGBUS

  // Event tail double buffer: heartbeat writes the non-current half then
  // publishes its index; the dump copies the current half and re-checks.
  char tail_buf[2][kTailBytes] = {};
  std::uint32_t tail_len[2] = {0, 0};
  std::uint32_t tail_count[2] = {0, 0};
  std::atomic<unsigned> tail_cur{0};
};

State& state() {
  // Leaked: the crash handler may fire during static teardown.
  static State* s = new State;
  return *s;
}

int sig_index(int sig) noexcept {
  switch (sig) {
    case SIGSEGV:
      return 0;
    case SIGABRT:
      return 1;
    case SIGBUS:
      return 2;
    default:
      return -1;
  }
}

/// The report writer.  Callable from signal context: only atomics,
/// open/write, and stack buffers.  Returns heartbeat frames written, or
/// -1 when disarmed / already dumping / the file cannot be opened.
long dump_impl(State& s, const char* reason) noexcept {
  if (!s.armed.load(std::memory_order_acquire)) return -1;
  int expected = 0;
  if (!s.dumping.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel)) {
    return -1;  // another dump in flight; it owns the file
  }
  const int fd = ::open(s.path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    s.dumping.store(0, std::memory_order_release);
    return -1;
  }

  // Header: pre-serialized prefix + reason + close.
  safe_write(fd, s.header, s.header_len);
  safe_write(fd, reason, safe_len(reason));
  safe_write(fd, "\"}\n", 3);

  // Heartbeat frames, oldest surviving ticket first.  The newest ticket is
  // recovered from the max published seq; the ring holds at most nframes
  // consecutive tickets ending there.
  std::uint64_t max_seq = 0;
  for (std::size_t i = 0; i < s.nframes; ++i) {
    const std::uint64_t q = s.frames[i].seq.load(std::memory_order_acquire);
    if (q != 0 && q % 2 == 0 && q > max_seq) max_seq = q;
  }
  long written = 0;
  if (max_seq != 0) {
    const std::uint64_t tmax = (max_seq - 2) / 2;
    const std::uint64_t t0 =
        tmax + 1 >= s.nframes ? tmax + 1 - s.nframes : 0;
    char buf[kFrameBytes];
    for (std::uint64_t t = t0; t <= tmax; ++t) {
      Frame& f = s.frames[t % s.nframes];
      const std::uint64_t want = 2 * t + 2;
      if (f.seq.load(std::memory_order_acquire) != want) continue;
      const std::uint32_t len = std::min<std::uint32_t>(f.len, kFrameBytes);
      copy_bytes(buf, f.json, len);
      if (f.seq.load(std::memory_order_acquire) != want) continue;  // torn
      safe_write(fd, buf, len);
      ++written;
    }
  }

  // Event tail: copy the published half, re-check it was not flipped
  // underneath the copy; one retry, then give up on the tail.
  std::uint32_t tail_events = 0;
  {
    char tbuf[kTailBytes];
    for (int attempt = 0; attempt < 2; ++attempt) {
      const unsigned cur = s.tail_cur.load(std::memory_order_acquire);
      const std::uint32_t len = std::min<std::uint32_t>(
          s.tail_len[cur], kTailBytes);
      const std::uint32_t count = s.tail_count[cur];
      copy_bytes(tbuf, s.tail_buf[cur], len);
      if (s.tail_cur.load(std::memory_order_acquire) != cur) continue;
      safe_write(fd, tbuf, len);
      tail_events = count;
      break;
    }
  }

  // Profile appendix: when the sampling profiler is (or was) armed, its
  // drain thread keeps a pre-serialized {"kind":"profile",...} line in a
  // double buffer; copying it here is byte moves + atomic loads only.
  {
    char pbuf[16384];
    const std::size_t plen = profiler_crash_snapshot(pbuf, sizeof(pbuf));
    if (plen > 0) safe_write(fd, pbuf, plen);
  }

  safe_write(fd, "{\"kind\":\"end\",\"frames\":", 23);
  write_u64(fd, static_cast<std::uint64_t>(written));
  safe_write(fd, ",\"events\":", 10);
  write_u64(fd, tail_events);
  safe_write(fd, "}\n", 2);
  ::close(fd);
  s.dumping.store(0, std::memory_order_release);
  return written;
}

void crash_handler(int sig) {
  State& s = state();
  dump_impl(s, signal_name(sig));
  const int idx = sig_index(sig);
  if (idx >= 0) ::sigaction(sig, &s.prev_sa[idx], nullptr);
  ::raise(sig);  // re-deliver to the restored (usually default) disposition
}

// ---------------------------------------------------------------------------
// Heartbeat serialization (normal context; allocation fine).

/// Append `"name":<payload>` entries with whole-entry rollback on
/// overflow; returns false (and marks w truncated upstream) when the
/// section was cut short.
template <typename Payload>
bool write_map_section(BoundedWriter& w, const char* key,
                       std::size_t n, Payload&& payload) {
  const std::size_t section_mark = w.mark();
  w.str(",\"");
  w.str(key);
  w.str("\":{");
  if (w.overflow()) {
    w.rewind(section_mark);
    return false;
  }
  bool first = true;
  bool complete = true;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t m = w.mark();
    if (!first) w.str(",");
    payload(i);
    if (w.overflow()) {
      w.rewind(m);
      complete = false;
      break;
    }
    first = false;
  }
  w.str("}");
  if (w.overflow()) {
    w.rewind(section_mark);
    return false;
  }
  return complete;
}

}  // namespace

bool blackbox_arm(const BlackBoxConfig& config) {
  State& s = state();
  const std::scoped_lock lock(s.hb_mu);
  if (s.armed.load(std::memory_order_relaxed)) return false;
  if (config.path == nullptr) return false;
  const std::size_t path_len = std::strlen(config.path);
  if (path_len == 0 || path_len >= sizeof(s.path)) return false;
  std::memcpy(s.path, config.path, path_len + 1);

  // Fail fast on an unwritable destination — a crash is the wrong moment
  // to discover a bad path.
  const int fd = ::open(s.path, O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  ::close(fd);

  const std::size_t n =
      std::clamp<std::size_t>(config.frames, 1, kMaxFrames);
  if (s.frames != nullptr && s.nframes != n) {
    delete[] s.frames;
    s.frames = nullptr;
  }
  if (s.frames == nullptr) s.frames = new Frame[n];
  s.nframes = n;
  for (std::size_t i = 0; i < n; ++i) {
    s.frames[i].seq.store(0, std::memory_order_relaxed);
    s.frames[i].len = 0;
  }
  s.ticket = 0;
  s.heartbeats.store(0, std::memory_order_relaxed);
  s.event_tail_cap = std::clamp<std::size_t>(config.event_tail, 1, kMaxTail);
  s.prev_counters.clear();
  s.tail_len[0] = s.tail_len[1] = 0;
  s.tail_count[0] = s.tail_count[1] = 0;
  s.tail_cur.store(0, std::memory_order_relaxed);

  BoundedWriter h(s.header, sizeof(s.header));
  h.str("{\"kind\":\"header\",\"schema\":\"mldcs-blackbox-v1\",\"pid\":");
  h.u64(static_cast<std::uint64_t>(::getpid()));
  h.str(",\"frames\":");
  h.u64(n);
  h.str(",\"event_tail\":");
  h.u64(s.event_tail_cap);
  h.str(",\"path\":\"");
  h.str(s.path);
  h.str("\",\"reason\":\"");
  if (h.overflow()) return false;  // path fits, so this cannot trip in practice
  s.header_len = static_cast<std::uint32_t>(h.size());

  if (config.install_signal_handlers) {
    struct sigaction sa = {};
    sa.sa_handler = crash_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    const int sigs[3] = {SIGSEGV, SIGABRT, SIGBUS};
    for (int i = 0; i < 3; ++i) ::sigaction(sigs[i], &sa, &s.prev_sa[i]);
    s.handlers_installed = true;
  }

  s.armed.store(true, std::memory_order_release);
  return true;
}

void blackbox_disarm() {
  State& s = state();
  const std::scoped_lock lock(s.hb_mu);
  if (!s.armed.load(std::memory_order_relaxed)) return;
  if (s.handlers_installed) {
    const int sigs[3] = {SIGSEGV, SIGABRT, SIGBUS};
    for (int i = 0; i < 3; ++i) ::sigaction(sigs[i], &s.prev_sa[i], nullptr);
    s.handlers_installed = false;
  }
  s.armed.store(false, std::memory_order_release);
}

bool blackbox_armed() noexcept {
  return state().armed.load(std::memory_order_acquire);
}

std::uint64_t blackbox_heartbeat_count() noexcept {
  return state().heartbeats.load(std::memory_order_relaxed);
}

// Alloc-exempt: heartbeats snapshot the registry and event log (both
// allocate) — they run at the caller's reporting cadence, never inside
// the step hot path (see header).
MLDCS_ALLOC_OK void blackbox_heartbeat(std::uint64_t step) {
  State& s = state();
  if (!s.armed.load(std::memory_order_relaxed)) return;
  const std::scoped_lock lock(s.hb_mu);
  if (!s.armed.load(std::memory_order_relaxed)) return;

  const RegistrySnapshot snap = registry().snapshot();
  const std::uint64_t shard_step = shard_stats(s.shard_scratch);
  const std::vector<Event> events = events_snapshot();

  const std::uint64_t t = s.ticket++;
  Frame& f = s.frames[t % s.nframes];
  f.seq.store(2 * t + 1, std::memory_order_release);  // odd: writing

  BoundedWriter w(f.json, kFrameBytes - kFrameSuffixReserve);
  bool truncated = false;
  w.str("{\"kind\":\"heartbeat\",\"seq\":");
  w.u64(t);
  w.str(",\"step\":");
  w.u64(step);

  // Counters as [absolute, delta-since-previous-frame]; the baseline walk
  // is a two-pointer merge (both sides sorted by name).
  {
    std::size_t p = 0;
    const auto& prev = s.prev_counters;
    truncated |= !write_map_section(
        w, "counters", snap.counters.size(), [&](std::size_t i) {
          const auto& [name, abs] = snap.counters[i];
          while (p < prev.size() && prev[p].first < name) ++p;
          const std::uint64_t base =
              p < prev.size() && prev[p].first == name ? prev[p].second : 0;
          w.str("\"");
          w.str(name.c_str());
          w.str("\":[");
          w.u64(abs);
          w.str(",");
          w.u64(abs >= base ? abs - base : abs);
          w.str("]");
        });
  }
  truncated |= !write_map_section(
      w, "gauges", snap.gauges.size(), [&](std::size_t i) {
        w.str("\"");
        w.str(snap.gauges[i].first.c_str());
        w.str("\":");
        w.i64(snap.gauges[i].second);
      });
  truncated |= !write_map_section(
      w, "hists", snap.histograms.size(), [&](std::size_t i) {
        w.str("\"");
        w.str(snap.histograms[i].first.c_str());
        w.str("\":[");
        w.u64(snap.histograms[i].second.count);
        w.str(",");
        w.u64(snap.histograms[i].second.sum);
        w.str("]");
      });

  // Per-shard load table (empty array when no sharded engine is live).
  {
    const std::size_t section_mark = w.mark();
    w.str(",\"shard_step\":");
    w.u64(shard_step);
    w.str(",\"shards\":[");
    bool first = true;
    for (const ShardStat& sh : s.shard_scratch) {
      const std::size_t m = w.mark();
      if (!first) w.str(",");
      w.str("{\"shard\":");
      w.u64(sh.shard);
      w.str(",\"owned\":");
      w.u64(sh.owned);
      w.str(",\"halo\":");
      w.u64(sh.halo);
      w.str(",\"incoming\":");
      w.u64(sh.incoming);
      w.str(",\"dirty\":");
      w.u64(sh.dirty);
      w.str(",\"step_ns\":");
      w.u64(sh.step_ns);
      w.str(",\"barrier_wait_ns\":");
      w.u64(sh.barrier_wait_ns);
      w.str("}");
      if (w.overflow()) {
        w.rewind(m);
        truncated = true;
        break;
      }
      first = false;
    }
    w.str("]");
    if (w.overflow()) {
      w.rewind(section_mark);
      truncated = true;
    }
  }

  // Event-log cursor: where the log stood when this frame was cut.
  w.str(",\"events\":{\"next\":");
  w.u64(events.empty() ? 0 : events.back().id + 1);
  w.str(",\"dropped\":");
  w.u64(events_dropped());
  w.str("}");
  if (w.overflow()) truncated = true;

  w.raise_cap(kFrameBytes);  // reserved suffix room
  if (truncated) w.str(",\"truncated\":true");
  w.str("}\n");
  f.len = static_cast<std::uint32_t>(w.size());
  f.seq.store(2 * t + 2, std::memory_order_release);  // even: published

  // Refresh the event tail double buffer (newest-last, global order).
  {
    const unsigned cur = s.tail_cur.load(std::memory_order_relaxed);
    const unsigned nxt = 1 - cur;
    BoundedWriter tw(s.tail_buf[nxt], kTailBytes);
    const std::size_t keep = std::min(s.event_tail_cap, events.size());
    std::uint32_t count = 0;
    for (std::size_t i = events.size() - keep; i < events.size(); ++i) {
      const Event& e = events[i];
      const std::size_t m = tw.mark();
      tw.str("{\"kind\":\"event\",\"id\":");
      tw.u64(e.id);
      tw.str(",\"t\":\"");
      tw.str(event_type_name(e.type));
      tw.str("\"");
      if (e.a != kNoNode) {
        tw.str(",\"a\":");
        tw.u64(e.a);
      }
      if (e.b != kNoNode) {
        tw.str(",\"b\":");
        tw.u64(e.b);
      }
      if (e.parent != kNoEvent) {
        tw.str(",\"parent\":");
        tw.u64(e.parent);
      }
      tw.str(",\"v\":");
      tw.u64(e.value);
      tw.str("}\n");
      if (tw.overflow()) {
        tw.rewind(m);
        break;
      }
      ++count;
    }
    s.tail_len[nxt] = static_cast<std::uint32_t>(tw.size());
    s.tail_count[nxt] = count;
    s.tail_cur.store(nxt, std::memory_order_release);
  }

  s.heartbeats.fetch_add(1, std::memory_order_relaxed);
  emit_event(EventType::kHeartbeat, static_cast<std::uint32_t>(t), kNoNode,
             kNoEvent, step);
  s.prev_counters.assign(snap.counters.begin(), snap.counters.end());
}

bool blackbox_dump_now(const char* reason) noexcept {
  State& s = state();
  const long written =
      dump_impl(s, reason != nullptr && *reason != '\0' ? reason : "manual");
  if (written < 0) return false;
  emit_event(EventType::kCrashDump, kNoNode, kNoNode, kNoEvent,
             static_cast<std::uint64_t>(written));
  return true;
}

}  // namespace mldcs::obs
