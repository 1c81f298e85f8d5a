#pragma once

/// \file blackbox.hpp
/// BlackBox flight recorder: always-on in-memory heartbeat ring with an
/// async-signal-safe post-mortem dumper.
///
/// The rest of the obs stack is opt-in and post-hoc — traces, events, and
/// snapshots only surface if the process exits cleanly and the run passed
/// the right flags.  A long-running broadcast service needs the opposite
/// guarantee: when the process dies (SIGSEGV mid-step, a watchdog
/// mismatch, an operator's SIGABRT), the last few seconds of telemetry
/// must already be on disk-writable form.  The blackbox provides that:
///
///  - **Heartbeat ring.**  `blackbox_heartbeat(step)` serializes one
///    frame — registry counter values *and deltas since the previous
///    frame*, gauge levels, histogram count/sum pairs, the per-shard
///    load/barrier-wait table (obs/shard_stats.hpp), and the event-log
///    tail cursor — into a fixed-size slot of a preallocated ring.  Each
///    slot carries a seqlock-style sequence word (odd while being
///    written, `2*ticket+2` when published), so a dump taken at any
///    instant can detect and skip torn frames without ever locking.
///    Heartbeats are driven from the caller's cadence (one per mobility
///    period, one per bench section); they allocate (registry snapshot)
///    and are explicitly NOT part of the step hot path.
///  - **Crash dumper.**  Arming installs SIGSEGV/SIGABRT/SIGBUS handlers
///    (saving and re-raising into the previous disposition) that write a
///    `mldcs-blackbox-v1` report using only async-signal-safe calls:
///    open(2)/write(2) of pre-serialized bytes, integer formatting into
///    stack buffers, atomic loads.  No malloc, no stdio, no locks.
///    `blackbox_dump_now(reason)` writes the same report from normal
///    context — the cache watchdog calls it on a consistency mismatch,
///    so the telemetry history *leading up to* the inconsistency is
///    preserved, not just the verdict.
///
/// Report format (`mldcs-blackbox-v1`, JSON Lines):
///
///   {"kind":"header","schema":"mldcs-blackbox-v1",...,"reason":"SIGABRT"}
///   {"kind":"heartbeat","seq":..,"step":..,"counters":{..},...}   (oldest)
///   ...                                                           (newest)
///   {"kind":"event","id":..,"t":"..",...}                    (last-N tail)
///   ...
///   {"kind":"profile","schema":"mldcs-profile-v1",...}       (if armed)
///   {"kind":"end","frames":H,"events":E}
///
/// The event tail, the last 64 events (the header's "event_tail"), is
/// captured at heartbeat time into a double buffer (the Event record
/// carries no thread id, so the tail is the global last 64 by id); the end
/// line's counts let tools/obslib.py detect truncated dumps.
/// The profile line appears when the sampling profiler (obs/profiler.hpp)
/// is or was armed: its drain thread pre-serializes phase counts and top
/// stacks into a double buffer the dumper copies byte-for-byte.

#include <cstddef>
#include <cstdint>

namespace mldcs::obs {

/// Blackbox arming parameters.  `path` is copied at arm time and must be
/// plain ASCII (it is embedded verbatim in pre-serialized JSON).
struct BlackBoxConfig {
  const char* path = "blackbox.jsonl";  ///< report destination
  std::size_t frames = 64;              ///< heartbeat ring slots (1..256)
  bool install_signal_handlers = true;  ///< arm SIGSEGV/SIGABRT/SIGBUS
};

/// Arm the recorder process-wide.  Returns false (and stays disarmed) if
/// already armed, the path is unusable (a touch-open fails), or the path
/// does not fit the fixed internal buffer.  Rearming after
/// blackbox_disarm() resets the ring and the delta baseline.
bool blackbox_arm(const BlackBoxConfig& config);

/// Restore the saved signal dispositions and stop accepting heartbeats
/// and dumps.  The ring stays allocated for a later rearm.
void blackbox_disarm();

[[nodiscard]] bool blackbox_armed() noexcept;

/// Record one heartbeat frame tagged with the caller's `step` counter.
/// Serializes a registry snapshot + shard stats + event tail; safe from
/// any thread (frames are serialized under an internal mutex), a no-op
/// when disarmed.  Not async-signal-safe and not for the step hot path.
void blackbox_heartbeat(std::uint64_t step);

/// Write the report to the armed path from normal context (watchdog
/// alarms, operator hooks).  Returns false when disarmed or the file
/// cannot be opened; concurrent dumps are collapsed to one.
bool blackbox_dump_now(const char* reason) noexcept;

/// Heartbeats recorded since the last arm (frames overwritten in the
/// ring still count).  For tests and progress reporting.
[[nodiscard]] std::uint64_t blackbox_heartbeat_count() noexcept;

}  // namespace mldcs::obs
