#pragma once

/// \file profiler.hpp
/// In-process sampling profiler with step-phase attribution.
///
/// The rest of the obs stack says *what* happened (metrics, events,
/// blackbox history); this module says *where the time went* — from a
/// live run, without a restart, and without adding anything to the step
/// hot path while disarmed.  Arming installs one POSIX interval timer per
/// registered thread against that thread's CPU-time clock
/// (`pthread_getcpuclockid` + `timer_create` with `SIGEV_THREAD_ID`), so
/// SIGPROF fires in proportion to CPU actually burned: a thread parked in
/// a condition wait accumulates no samples and the profile is
/// load-immune by construction.
///
///  - **Handler discipline.**  The SIGPROF handler follows the blackbox
///    contract exactly: no malloc, no stdio, no locks — it reads the
///    ucontext PC and walks frame pointers (upward-only, stack-bounded)
///    into a preallocated per-thread ring of relaxed-atomic sample
///    slots.  The ring drops-when-full instead of overwriting, so the
///    drain side never reads a torn sample.
///  - **Phase words.**  A thread-local phase tag set by `obs::Scope`
///    (scope.hpp; the same object emits the region's trace span) is woven
///    through the hot layers — engine step phases, graph apply, halo
///    routing, cache update/recompute, SIMD kernel dispatch, pool idle —
///    and captured with every sample, so a profile splits by phase even
///    when frame pointers are compiled out.
///  - **Folding.**  A drain thread sweeps the rings every ~50 ms and
///    folds stacks into collapsed-stack form ("phase;outer;...;leaf N",
///    flamegraph.pl / speedscope compatible; schema `mldcs-profile-v1`)
///    with dladdr symbolization and demangling at fold time, never in
///    the handler.  It also pre-serializes a bounded JSON profile line
///    into a double buffer so a blackbox crash dump can append the
///    profile using only async-signal-safe byte copies.
///
/// Surfaces: `/profile?seconds=N&format=folded|json` on the
/// IntrospectServer, `--profile PATH` on perf_suite and
/// mobility_maintenance, `profiler_crash_snapshot()` inside blackbox
/// dumps, and tools/obslib.py `load_profile` (docs/OBSERVABILITY.md,
/// "Sampling profiler").

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/scope.hpp"  // Phase vocabulary, Scope

namespace mldcs::obs {

/// Profiler arming parameters.
struct ProfilerConfig {
  std::uint32_t hz = 97;  ///< sampling rate per thread, clamped to 1..1000
};

/// One folded profile, as drained so far.
struct ProfileReport {
  std::uint32_t hz = 0;            ///< armed sampling rate
  std::uint64_t total_samples = 0; ///< samples folded (== sum of phases)
  std::uint64_t dropped = 0;       ///< samples lost to full rings
  double duration_s = 0.0;         ///< armed wall time covered
  /// "phase;outer;...;leaf" -> sample count, descending by count.
  std::vector<std::pair<std::string, std::uint64_t>> folded;
  /// phase_name -> sample count, descending by count; only nonzero rows.
  std::vector<std::pair<std::string, std::uint64_t>> phases;
};

/// The calling thread's current phase tag (tests, diagnostics).
[[nodiscard]] inline Phase profiler_current_phase() noexcept {
  return static_cast<Phase>(
      detail::t_phase.load(std::memory_order_relaxed));
}

/// Arm the profiler process-wide: installs the SIGPROF handler, starts
/// one CPU-clock interval timer per registered thread (plus the caller's,
/// which is registered implicitly), and launches the drain thread.
/// Returns false when already armed.  Rearming resets the folded state.
bool profiler_arm(const ProfilerConfig& config);

/// Delete the timers, stop sampling, and join the drain thread (which
/// takes a final sweep, so the report is complete on return).  The
/// SIGPROF handler stays installed — it is a benign no-op while disarmed,
/// and restoring the default disposition would race a late timer signal
/// into process death.
void profiler_disarm();

[[nodiscard]] bool profiler_armed() noexcept;

/// Register the calling thread for sampling (its record also carries its
/// trace spans and events).  Idempotent and cheap after the first call.
/// Called from ThreadPool workers and ShardedEngine construction; call it
/// from any additional thread that should appear in profiles.  While
/// armed, registration starts the thread's timer immediately.
void profiler_register_thread();

/// The profile folded so far (armed or not).  Thread-safe; between drain
/// sweeps the newest <=50 ms of samples are still in the rings.
[[nodiscard]] ProfileReport profiler_report();

/// Capture one bounded window.  Disarmed: arms with `config`, sleeps
/// `seconds` (clamped to 0.05..30), disarms, returns the full report.
/// Already armed: leaves the run's profiler alone and returns the
/// *difference* over the window, so an on-demand `/profile` probe against
/// a `--profile` run yields a clean windowed view.
[[nodiscard]] ProfileReport profiler_capture_window(
    double seconds, const ProfilerConfig& config);

/// Copy the drain thread's pre-serialized `{"kind":"profile",...}\n` line
/// (one bounded JSON object: hz, totals, phase counts, top stacks) into
/// `dst`.  Async-signal-safe — byte copies and atomic loads only — and
/// torn-flip protected; returns bytes written, 0 when nothing has been
/// serialized yet or `cap` is too small.  The blackbox dumper appends
/// this between the event tail and the end trailer.
std::size_t profiler_crash_snapshot(char* dst, std::size_t cap) noexcept;

/// Write `r` as collapsed-stack text: one "stack count" line per folded
/// stack, flamegraph.pl / speedscope compatible.  Metadata (hz, dropped,
/// phases) is not representable here — use the JSON form for that.
void write_profile_folded(std::ostream& os, const ProfileReport& r);

/// Write `r` as one `mldcs-profile-v1` JSON document:
///   {"schema":"mldcs-profile-v1","hz":..,"total_samples":..,
///    "dropped":..,"duration_s":..,"phases":{..},"folded":{..}}
/// Phase counts sum to total_samples by construction.
void write_profile_json(std::ostream& os, const ProfileReport& r);

}  // namespace mldcs::obs
