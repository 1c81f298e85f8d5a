// Sampling profiler engine (see profiler.hpp for the design contract).

#ifndef _GNU_SOURCE
#define _GNU_SOURCE 1  // pthread_getattr_np, SIGEV_THREAD_ID
#endif

#include "obs/profiler.hpp"

#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <mutex>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "core/annotations.hpp"
#include "obs/thread_record.hpp"

// Linux guards SIGEV_THREAD_ID behind __USE_GNU; provide the stable ABI
// values when the headers hide them (the kernel interface is fixed).
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

// The frame-pointer walk reads raw stack words.  Under ASan/MSan the
// shadow + fake-stack machinery makes those reads both meaningless and
// diagnosable, so sanitized builds keep the leaf PC only — phase
// attribution (the acceptance metric) never depends on walk depth.
#if defined(__x86_64__) || defined(__aarch64__)
#define MLDCS_PROFILER_WALK 1
#else
#define MLDCS_PROFILER_WALK 0
#endif
#if defined(__SANITIZE_ADDRESS__)
#undef MLDCS_PROFILER_WALK
#define MLDCS_PROFILER_WALK 0
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(memory_sanitizer)
#undef MLDCS_PROFILER_WALK
#define MLDCS_PROFILER_WALK 0
#endif
#endif

namespace mldcs::obs {

namespace detail {
thread_local constinit std::atomic<std::uint32_t> t_phase{0};
}  // namespace detail

using detail::kMaxDepth;
using detail::kRingSlots;
using detail::Sample;
using detail::ThreadRec;

namespace {

constexpr std::uint32_t kMinHz = 1;
constexpr std::uint32_t kMaxHz = 1000;
constexpr std::size_t kCrashBytes = 16384;
constexpr auto kDrainPeriod = std::chrono::milliseconds(50);

/// JSON string body for `in` (quotes and backslashes escaped, control
/// characters flattened to spaces).
std::string json_escape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

struct State {
  // Control side (normal context, under detail::g_registry_mu).
  bool armed = false;
  bool handler_installed = false;
  std::uint32_t hz = 0;
  std::chrono::steady_clock::time_point arm_time{};
  double sampled_s = 0.0;  ///< accumulated armed wall time (past windows)
  std::thread drain;

  // Fold side (drain thread writes, report() reads; under fold_mu).
  std::mutex fold_mu;
  std::unordered_map<std::string, std::uint64_t> folded;
  std::uint64_t phase_counts[kPhaseCount] = {};
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
  std::unordered_map<std::uintptr_t, std::string> symcache;  // drain only
  std::atomic<std::uint64_t> sweep_gen{0};  ///< completed drain sweeps

  // Crash-snapshot double buffer: the drain serializes into the
  // non-current half then publishes the index; profiler_crash_snapshot
  // copies the current half and re-checks (the blackbox tail pattern).
  char crash_buf[2][kCrashBytes] = {};
  std::uint32_t crash_len[2] = {0, 0};
  std::atomic<unsigned> crash_cur{0};
};

/// Raw pointer mirror of the leaked singleton for the async-signal-safe
/// paths: state() itself has a function-local static guard (and an
/// allocation on first call), neither of which may run in a handler.
std::atomic<State*> g_state{nullptr};

/// Sampling gate the handler reads; true strictly while timers may fire.
std::atomic<bool> g_sampling{false};

State& state() {
  // Leaked: timers and the crash path may outlive static teardown.
  static State* s = [] {
    State* p = new State;
    g_state.store(p, std::memory_order_release);
    return p;
  }();
  return *s;
}

std::uint32_t g_nrecs = 0;  ///< records ever created (registry lock)

/// The calling thread's record; constant-initialized TLS so the handler
/// read is one register-relative load, no init guard.
thread_local constinit ThreadRec* t_rec = nullptr;

// ---------------------------------------------------------------------------
// SIGPROF handler: the async-signal-safe half.  No calls except atomic
// loads/stores on preallocated storage; annotated so mldcs-analyze audits
// it under the same rules as the step hot path.

MLDCS_HOT_PATH MLDCS_NO_LOCK void sigprof_handler(int /*sig*/,
                                                  siginfo_t* /*info*/,
                                                  void* uctx) {
  ThreadRec* rec = t_rec;
  if (rec == nullptr || !g_sampling.load(std::memory_order_relaxed)) return;
  Sample* const ring = rec->samples.load(std::memory_order_acquire);
  if (ring == nullptr) return;  // allocated before the timer ever starts
  const std::uint64_t head = rec->head.load(std::memory_order_relaxed);
  if (head - rec->tail.load(std::memory_order_relaxed) >= kRingSlots) {
    rec->dropped.fetch_add(1, std::memory_order_relaxed);
    return;  // full: drop the sample, never overwrite an undrained slot
  }
  Sample& slot = ring[head & (kRingSlots - 1)];

  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
  std::uintptr_t sp = 0;
  const ucontext_t* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uc;
#endif

  std::uint32_t depth = 0;
  if (pc != 0) {
    slot.pc[depth].store(pc, std::memory_order_relaxed);
    ++depth;
  }
#if MLDCS_PROFILER_WALK
  // Upward-only frame-pointer walk, every step checked: the frame must
  // lie within [sp, stack_hi), be pointer-aligned, and strictly ascend —
  // a clobbered or omitted frame pointer terminates the walk instead of
  // faulting.  Shallow stacks under -fomit-frame-pointer are expected
  // and fine; the phase word carries the attribution either way.
  // Overflow-free bound: `fp + 16 <= hi` would wrap for a garbage frame
  // pointer near ~0 and let the read through — compare by subtraction.
  const std::uintptr_t hi = rec->stack_hi;
  (void)sp;
  while (depth < kMaxDepth && fp != 0 && fp >= sp && fp < hi &&
         hi - fp >= 2 * sizeof(std::uintptr_t) &&
         (fp & (sizeof(std::uintptr_t) - 1)) == 0) {
    const std::uintptr_t* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t ret = frame[1];
    const std::uintptr_t next = frame[0];
    if (ret == 0) break;
    slot.pc[depth].store(ret, std::memory_order_relaxed);
    ++depth;
    if (next <= fp) break;
    fp = next;
  }
#else
  (void)fp;
  (void)sp;
#endif

  slot.depth.store(depth, std::memory_order_relaxed);
  slot.phase.store(detail::t_phase.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  rec->head.store(head + 1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Timer lifecycle (normal context, under the registry lock).

void start_timer_for(State& s, ThreadRec* rec) {
  if (rec->timer_active || !rec->alive.load(std::memory_order_relaxed)) {
    return;
  }
  // The sample ring comes with the record's first timer: every pool worker
  // registers, and most runs never arm the profiler.
  if (rec->samples.load(std::memory_order_relaxed) == nullptr) {
    rec->samples.store(new Sample[kRingSlots], std::memory_order_release);
  }
  clockid_t clock;
  if (pthread_getcpuclockid(rec->pth, &clock) != 0) return;
  sigevent sev = {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = rec->tid;
  if (timer_create(clock, &sev, &rec->timer) != 0) return;
  const long period_ns = 1000000000L / static_cast<long>(s.hz);
  itimerspec its = {};
  its.it_interval.tv_sec = 0;
  its.it_interval.tv_nsec = period_ns;
  its.it_value = its.it_interval;
  if (timer_settime(rec->timer, 0, &its, nullptr) != 0) {
    timer_delete(rec->timer);
    return;
  }
  rec->timer_active = true;
}

void stop_timer_for(ThreadRec* rec) {
  if (!rec->timer_active) return;
  timer_delete(rec->timer);
  rec->timer_active = false;
}

/// Thread-exit hook: a function-local thread_local whose destructor tears
/// the timer down and retires the record before the thread's CPU clock
/// dies with it.  The record itself is leaked by design (a late SIGPROF
/// can never touch freed memory) and handed to the next registrant.
struct ThreadExitGuard {
  ThreadRec* rec;
  ~ThreadExitGuard() {
    const std::scoped_lock lock(detail::g_registry_mu);
    stop_timer_for(rec);
    rec->alive.store(false, std::memory_order_relaxed);
    t_rec = nullptr;
  }
};

void register_thread_locked(State& s) {
  if (t_rec != nullptr) return;
  ThreadRec* rec = detail::thread_recs();
  while (rec != nullptr && rec->alive.load(std::memory_order_relaxed)) {
    rec = rec->next;
  }
  if (rec == nullptr) {  // no retired record to reuse
    rec = new ThreadRec;
    rec->index = g_nrecs++;
    rec->next = detail::g_thread_recs.load(std::memory_order_relaxed);
    detail::g_thread_recs.store(rec, std::memory_order_release);
  }
  rec->alive.store(true, std::memory_order_relaxed);
  rec->pth = pthread_self();
  rec->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* lo = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &lo, &size) == 0) {
      rec->stack_lo = reinterpret_cast<std::uintptr_t>(lo);
      rec->stack_hi = rec->stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  if (detail::g_trace_armed.load(std::memory_order_relaxed)) {
    detail::ensure_span_ring(*rec);
  }
  t_rec = rec;
  static thread_local ThreadExitGuard guard{rec};
  (void)guard;
  if (s.armed) start_timer_for(s, rec);  // late thread joins the window
}

// ---------------------------------------------------------------------------
// Drain thread: folds ring samples into collapsed stacks (dladdr +
// demangle at fold time, with a pc -> name cache) and refreshes the
// pre-serialized crash snapshot.

/// Best-effort symbol for `pc`: demangled function name with the argument
/// list stripped and spaces flattened (folded frames are ';'- and
/// space-delimited), else "0x<hex>".  Drain-thread only.
const std::string& symbolize(State& s, std::uintptr_t pc) {
  const auto it = s.symcache.find(pc);
  if (it != s.symcache.end()) return it->second;
  std::string name;
  Dl_info info = {};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      name = demangled;
      const std::size_t paren = name.find('(');
      if (paren != std::string::npos) name.resize(paren);
      // Template instantiations demangle with a leading return type
      // ("unsigned int foo<T>"); drop it — but only scan for the
      // separating space before the first '<', where spaces still mean
      // "return type", not "template argument".
      const std::size_t lt = name.find('<');
      const std::size_t scan_end = lt == std::string::npos ? name.size() : lt;
      if (scan_end > 0) {
        const std::size_t sp = name.rfind(' ', scan_end - 1);
        if (sp != std::string::npos) name.erase(0, sp + 1);
      }
      std::replace(name.begin(), name.end(), ' ', '_');
      std::replace(name.begin(), name.end(), ';', ',');
    } else {
      name = info.dli_sname;
    }
    if (demangled != nullptr) std::free(demangled);
  }
  if (name.empty()) {
    char hex[2 + 2 * sizeof(std::uintptr_t) + 1];
    std::snprintf(hex, sizeof(hex), "0x%zx", static_cast<std::size_t>(pc));
    name = hex;
  }
  return s.symcache.emplace(pc, std::move(name)).first->second;
}

/// One sweep over every ring: fold [tail, head) of each, then advance
/// tail.  Returns samples folded this sweep.
std::uint64_t drain_once(State& s) {
  std::uint64_t folded_now = 0;
  std::string key;
  const std::scoped_lock fold_lock(s.fold_mu);
  for (ThreadRec* rec = detail::thread_recs(); rec != nullptr;
       rec = rec->next) {
    const Sample* const ring = rec->samples.load(std::memory_order_acquire);
    if (ring == nullptr) continue;  // never sampled
    const std::uint64_t head = rec->head.load(std::memory_order_acquire);
    const std::uint64_t tail = rec->tail.load(std::memory_order_relaxed);
    for (std::uint64_t t = tail; t < head; ++t) {
      const Sample& slot = ring[t & (kRingSlots - 1)];
      const std::uint32_t phase = slot.phase.load(std::memory_order_relaxed);
      const std::uint32_t depth =
          std::min<std::uint32_t>(slot.depth.load(std::memory_order_relaxed),
                                  kMaxDepth);
      key.assign(phase_name(static_cast<Phase>(
          phase < kPhaseCount ? phase : 0)));
      // Root-first: the outermost captured frame right after the phase,
      // the interrupted PC last — flamegraph semantics.
      for (std::uint32_t d = depth; d > 0; --d) {
        const std::uintptr_t pc =
            slot.pc[d - 1].load(std::memory_order_relaxed);
        key.push_back(';');
        // Return addresses point after the call; step back one byte so
        // the symbol lookup lands inside the calling function.
        key += symbolize(s, d > 1 ? pc - 1 : pc);
      }
      ++s.folded[key];
      ++s.phase_counts[phase < kPhaseCount ? phase : 0];
      ++s.total;
      ++folded_now;
    }
    rec->tail.store(head, std::memory_order_release);
    s.dropped += rec->dropped.exchange(0, std::memory_order_relaxed);
  }
  return folded_now;
}

/// Refresh the crash-snapshot double buffer from the folded state.
/// Normal context (allocates freely); the reader side is byte copies.
void refresh_crash_snapshot(State& s) {
  std::string doc;
  doc.reserve(2048);
  {
    const std::scoped_lock fold_lock(s.fold_mu);
    doc += "{\"kind\":\"profile\",\"schema\":\"mldcs-profile-v1\",\"hz\":";
    doc += std::to_string(s.hz);
    doc += ",\"total_samples\":";
    doc += std::to_string(s.total);
    doc += ",\"dropped\":";
    doc += std::to_string(s.dropped);
    doc += ",\"phases\":{";
    bool first = true;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      if (s.phase_counts[p] == 0) continue;
      if (!first) doc += ',';
      first = false;
      doc += '"';
      doc += phase_name(static_cast<Phase>(p));
      doc += "\":";
      doc += std::to_string(s.phase_counts[p]);
    }
    doc += "},\"top\":[";
    // Highest-count stacks while they fit; the buffer stays balanced
    // JSON because each entry is appended whole or not at all.
    std::vector<std::pair<std::uint64_t, const std::string*>> order;
    order.reserve(s.folded.size());
    for (const auto& [stack, count] : s.folded) {
      order.emplace_back(count, &stack);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : *a.second < *b.second;
              });
    first = true;
    for (const auto& [count, stack] : order) {
      std::string entry;
      if (!first) entry += ',';
      entry += "[\"" + json_escape(*stack) + "\",";
      entry += std::to_string(count);
      entry += ']';
      if (doc.size() + entry.size() + 4 > kCrashBytes) break;
      doc += entry;
      first = false;
    }
    doc += "]}\n";
  }
  if (doc.size() > kCrashBytes) return;  // cannot happen; belt-and-braces
  const unsigned cur = s.crash_cur.load(std::memory_order_relaxed);
  const unsigned nxt = 1 - cur;
  std::memcpy(s.crash_buf[nxt], doc.data(), doc.size());
  s.crash_len[nxt] = static_cast<std::uint32_t>(doc.size());
  s.crash_cur.store(nxt, std::memory_order_release);
}

void drain_loop(State& s) {
  while (g_sampling.load(std::memory_order_acquire)) {
    drain_once(s);
    refresh_crash_snapshot(s);
    s.sweep_gen.fetch_add(1, std::memory_order_release);
    std::this_thread::sleep_for(kDrainPeriod);
  }
  // Final sweep: everything sampled before the timers died is folded.
  drain_once(s);
  refresh_crash_snapshot(s);
  s.sweep_gen.fetch_add(1, std::memory_order_release);
}

double armed_seconds(const State& s) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       s.arm_time)
      .count();
}

}  // namespace

namespace detail {

ThreadRec& this_thread_rec() {
  if (t_rec == nullptr) {
    State& s = state();
    const std::scoped_lock lock(g_registry_mu);
    register_thread_locked(s);
  }
  return *t_rec;
}

}  // namespace detail

bool profiler_arm(const ProfilerConfig& config) {
  State& s = state();
  const std::scoped_lock lock(detail::g_registry_mu);
  if (s.armed) return false;
  s.hz = std::clamp(config.hz, kMinHz, kMaxHz);
  register_thread_locked(s);

  {
    const std::scoped_lock fold_lock(s.fold_mu);
    s.folded.clear();
    std::fill(std::begin(s.phase_counts), std::end(s.phase_counts), 0);
    s.total = 0;
    s.dropped = 0;
  }
  s.sampled_s = 0.0;
  for (ThreadRec* rec = detail::thread_recs(); rec != nullptr;
       rec = rec->next) {
    rec->head.store(0, std::memory_order_relaxed);
    rec->tail.store(0, std::memory_order_relaxed);
    rec->dropped.store(0, std::memory_order_relaxed);
  }

  if (!s.handler_installed) {
    // Installed once, never restored: the handler is a no-op while
    // disarmed, whereas restoring SIG_DFL would race a late timer signal
    // into process termination (SIGPROF's default action).
    struct sigaction sa = {};
    sa.sa_sigaction = sigprof_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    if (::sigaction(SIGPROF, &sa, nullptr) != 0) return false;
    s.handler_installed = true;
  }

  g_sampling.store(true, std::memory_order_release);
  for (ThreadRec* rec = detail::thread_recs(); rec != nullptr;
       rec = rec->next) {
    start_timer_for(s, rec);
  }
  s.arm_time = std::chrono::steady_clock::now();
  s.drain = std::thread([&s] { drain_loop(s); });
  s.armed = true;
  return true;
}

void profiler_disarm() {
  State& s = state();
  std::thread drain;
  {
    const std::scoped_lock lock(detail::g_registry_mu);
    if (!s.armed) return;
    for (ThreadRec* rec = detail::thread_recs(); rec != nullptr;
         rec = rec->next) {
      stop_timer_for(rec);
    }
    s.sampled_s += armed_seconds(s);
    g_sampling.store(false, std::memory_order_release);
    s.armed = false;
    drain = std::move(s.drain);
  }
  // Join outside the lock: the drain's final sweep must not deadlock
  // against a concurrent register/report taking mu or fold_mu.
  if (drain.joinable()) drain.join();
}

bool profiler_armed() noexcept {
  return g_sampling.load(std::memory_order_acquire);
}

void profiler_register_thread() { (void)detail::this_thread_rec(); }

ProfileReport profiler_report() {
  State& s = state();
  ProfileReport r;
  {
    const std::scoped_lock lock(detail::g_registry_mu);
    r.hz = s.hz;
    r.duration_s = s.sampled_s + (s.armed ? armed_seconds(s) : 0.0);
  }
  {
    const std::scoped_lock fold_lock(s.fold_mu);
    r.total_samples = s.total;
    r.dropped = s.dropped;
    r.folded.assign(s.folded.begin(), s.folded.end());
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      if (s.phase_counts[p] != 0) {
        r.phases.emplace_back(phase_name(static_cast<Phase>(p)),
                              s.phase_counts[p]);
      }
    }
  }
  const auto by_count_desc = [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  };
  std::sort(r.folded.begin(), r.folded.end(), by_count_desc);
  std::sort(r.phases.begin(), r.phases.end(), by_count_desc);
  return r;
}

namespace {

/// Block until the drain thread has completed two more sweeps (or
/// sampling stopped), so a window's tail samples are folded before the
/// report is cut.
void wait_for_sweeps(State& s, std::uint64_t baseline_gen) {
  for (int spin = 0; spin < 200; ++spin) {  // <= ~2 s safety cap
    if (!g_sampling.load(std::memory_order_acquire)) return;
    if (s.sweep_gen.load(std::memory_order_acquire) >= baseline_gen + 2) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

ProfileReport diff_reports(const ProfileReport& base, ProfileReport end) {
  std::unordered_map<std::string, std::uint64_t> base_folded(
      base.folded.begin(), base.folded.end());
  std::unordered_map<std::string, std::uint64_t> base_phases(
      base.phases.begin(), base.phases.end());
  const auto subtract = [](auto& rows, const auto& baseline) {
    auto out = rows.begin();
    for (auto& [key, count] : rows) {
      const auto it = baseline.find(key);
      const std::uint64_t before = it == baseline.end() ? 0 : it->second;
      if (count > before) *out++ = {key, count - before};
    }
    rows.erase(out, rows.end());
  };
  subtract(end.folded, base_folded);
  subtract(end.phases, base_phases);
  end.total_samples -= std::min(end.total_samples, base.total_samples);
  end.dropped -= std::min(end.dropped, base.dropped);
  end.duration_s = std::max(0.0, end.duration_s - base.duration_s);
  return end;
}

}  // namespace

ProfileReport profiler_capture_window(double seconds,
                                      const ProfilerConfig& config) {
  State& s = state();
  const double secs = std::clamp(seconds, 0.05, 30.0);
  if (!profiler_armed()) {
    if (!profiler_arm(config)) return {};  // lost an arm race: stay out
    std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    profiler_disarm();
    return profiler_report();
  }
  // Already armed (a --profile run being probed live): report the
  // window as a difference, leaving the long-running profile intact.
  const ProfileReport base = profiler_report();
  std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  wait_for_sweeps(s, s.sweep_gen.load(std::memory_order_acquire));
  return diff_reports(base, profiler_report());
}

std::size_t profiler_crash_snapshot(char* dst, std::size_t cap) noexcept {
  State* s = g_state.load(std::memory_order_acquire);
  if (s == nullptr || dst == nullptr) return 0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const unsigned cur = s->crash_cur.load(std::memory_order_acquire);
    const std::uint32_t len = s->crash_len[cur];
    // Whole line or nothing: a truncated JSON object would corrupt the
    // blackbox report it gets appended to.
    if (len == 0 || len > cap || len > kCrashBytes) return 0;
    for (std::uint32_t i = 0; i < len; ++i) dst[i] = s->crash_buf[cur][i];
    if (s->crash_cur.load(std::memory_order_acquire) == cur) return len;
  }
  return 0;  // buffer kept flipping underneath us: give up cleanly
}

void write_profile_folded(std::ostream& os, const ProfileReport& r) {
  for (const auto& [stack, count] : r.folded) {
    os << stack << ' ' << count << '\n';
  }
}

void write_profile_json(std::ostream& os, const ProfileReport& r) {
  os << "{\"schema\":\"mldcs-profile-v1\",\"hz\":" << r.hz
     << ",\"total_samples\":" << r.total_samples
     << ",\"dropped\":" << r.dropped << ",\"duration_s\":" << r.duration_s
     << ",\"phases\":{";
  bool first = true;
  for (const auto& [phase, count] : r.phases) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(phase) << "\":" << count;
  }
  os << "},\"folded\":{";
  first = true;
  for (const auto& [stack, count] : r.folded) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(stack) << "\":" << count;
  }
  os << "}}\n";
}

}  // namespace mldcs::obs
