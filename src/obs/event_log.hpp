#pragma once

/// \file event_log.hpp
/// Broadcast flight recorder: a bounded, per-thread-buffered log of typed
/// protocol events with causal parent links.
///
/// The telemetry registry (telemetry.hpp) answers "how much" — counters and
/// distributions.  The event log answers "why": when a broadcast misses a
/// reachable node or burns redundant airtime, the log records *which*
/// transmission designated whom, who was suppressed, and which reception
/// triggered which transmission, so the delivery tree and every per-node
/// decision can be reconstructed after the fact (obs/event_replay.hpp) or
/// exported for offline forensics (write_events_jsonl, schema
/// `mldcs-events-v1`).
///
/// Design:
///  - **Per-thread buffers.**  Each thread appends to its observability
///    record (which also holds its profiler samples and trace spans); the
///    record's mutex is only ever contended by an in-flight flush, and no
///    MLDCS_NO_LOCK code emits.
///  - **Causal ids.**  Every emitted event draws a globally unique id from
///    one relaxed atomic; a later event names its cause by that id (a kRx
///    points at the kTx it heard, a kTx points at the kRx that delivered
///    the message to the transmitter).
///  - **Bounded.**  `events_start(capacity)` fixes a hard cap; once the id
///    counter passes it, further events are dropped (counted in
///    events_dropped) instead of growing memory without bound.
///  - **Disarmed = one relaxed load.**  When collection is stopped (the
///    default), emit_event returns immediately after one relaxed atomic
///    load.
///
/// Event vocabulary (field meanings per type are part of the
/// `mldcs-events-v1` schema; see docs/OBSERVABILITY.md):
///
/// | type              | a              | b                   | value        | parent            |
/// |-------------------|----------------|---------------------|--------------|-------------------|
/// | kBroadcast        | source node    | (pruned<<16)|(reception<<8)|scheme | reachable | — |
/// | kTx               | transmitter    | —                   | hop          | the Rx that fed it|
/// | kRx               | receiver       | transmitter         | hop          | the Tx heard      |
/// | kDuplicateRx      | receiver       | transmitter         | hop          | the Tx heard      |
/// | kDesignate        | designee       | transmitter         | —            | the Tx naming it  |
/// | kSuppress         | suppressed node| —                   | —            | the node's Rx     |
/// | kStep             | moved count    | link-changed count  | step index   | —                 |
/// | kCacheUpdate      | dirty count    | —                   | update index | the step's kStep  |
/// | kWatchdogCheck    | sampled count  | mismatch count      | step index   | last kCacheUpdate |
/// | kWatchdogMismatch | relay id       | —                   | —            | the kWatchdogCheck|
/// | kShardExchange    | routed halo updates | migrations     | step index   | —                 |
/// | kHeartbeat        | frame sequence | —                   | step index   | —                 |
/// | kCrashDump        | —              | —                   | frames written | —               |
///
/// kBroadcast's `pruned` bit (bcast::kSelfPrunedTag) marks a self-pruned
/// broadcast (simulate_pruned_broadcast); every broadcast, pruned or not,
/// is also counted in the `bcast.*` telemetry.
///
/// kShardExchange is the sharded engine's step-level event (one per
/// barrier; shard region graphs emit no per-shard kStep), so a sharded
/// cache update parents to it exactly as a single-engine kCacheUpdate
/// parents to its kStep.  kHeartbeat/kCrashDump are the blackbox flight
/// recorder's own marks (obs/blackbox.hpp): one per recorded heartbeat
/// frame, and one per explicit dump_now() — signal-context dumps cannot
/// emit events and leave only the report file.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace mldcs::obs {

/// "No event" sentinel for ids and parent links.
inline constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
/// "No node" sentinel for the a/b fields.
inline constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

/// Default event capacity: enough for a long mobility run or a handful of
/// dense broadcasts (~32 MiB at 32 B/event) without unbounded growth.
inline constexpr std::size_t kDefaultEventCapacity = std::size_t{1} << 20;

enum class EventType : std::uint8_t {
  kBroadcast,
  kTx,
  kRx,
  kDuplicateRx,
  kDesignate,
  kSuppress,
  kStep,
  kCacheUpdate,
  kWatchdogCheck,
  kWatchdogMismatch,
  kShardExchange,
  kHeartbeat,
  kCrashDump,
};

/// Stable short name used in the JSONL export ("tx", "rx", "dup_rx", ...).
[[nodiscard]] const char* event_type_name(EventType t) noexcept;

/// One recorded event.  Interpretation of a/b/value depends on type (table
/// above); parent is the id of the causal predecessor or kNoEvent.
struct Event {
  std::uint64_t id = kNoEvent;
  std::uint64_t parent = kNoEvent;
  std::uint64_t value = 0;
  std::uint32_t a = kNoNode;
  std::uint32_t b = kNoNode;
  EventType type = EventType::kBroadcast;
};

/// Arm collection with a hard cap on recorded events (ids past the cap are
/// dropped and counted).  Restarting keeps already-buffered events and the
/// id sequence; pass through events_clear() for a fresh run.
void events_start(std::size_t capacity = kDefaultEventCapacity);

/// Stop collecting.  Buffered events stay until events_clear / a flush.
void events_stop();

[[nodiscard]] bool events_enabled() noexcept;

/// Record one event and return its id — or kNoEvent when collection is
/// stopped (one relaxed load) or the capacity is exhausted.
std::uint64_t emit_event(EventType type, std::uint32_t a, std::uint32_t b,
                         std::uint64_t parent, std::uint64_t value) noexcept;

/// Events dropped since the last clear because the capacity was exhausted.
[[nodiscard]] std::uint64_t events_dropped() noexcept;

/// Drop all buffered events and restart the id sequence from 0.
void events_clear();

/// Copy of every buffered event across all threads, sorted by id (== the
/// emission order).  Does not clear; feed this to obs/event_replay.hpp.
[[nodiscard]] std::vector<Event> events_snapshot();

/// Write the log as JSON Lines, schema `mldcs-events-v1`: a header object
/// {"schema":...,"enabled":...,"count":...,"dropped":...} followed by one
/// event object per line, in id order.  Does not clear the buffers.
void write_events_jsonl(std::ostream& os);

/// Same document restricted to the `tail` highest-id events (the header's
/// count reflects the emitted lines, so the output is a valid standalone
/// `mldcs-events-v1` document).  Serves introspection's `/events?tail=N`.
void write_events_jsonl_tail(std::ostream& os, std::size_t tail);

}  // namespace mldcs::obs
