#pragma once

/// \file event_replay.hpp
/// Derivation of broadcast outcomes purely from flight-recorder events.
///
/// `replay_broadcasts` folds an event stream (obs/event_log.hpp) back into
/// per-broadcast outcome counters and the full delivery tree — with no
/// access to the graph or the simulator.  The counters are differential-
/// tested byte-equal against `bcast::BroadcastResult` (the simulator's own
/// bookkeeping), which makes the event stream a *sufficient* record: any
/// question the simulator can answer about a run, the log can answer after
/// the fact.
///
/// On top of the replay sit the "why" queries the storm/forensics analyses
/// need:
///  - `ReplayedBroadcast::fate` — everything the log knows about one node
///    (received? via whom, at what hop? designated by whom? suppressed?
///    duplicates heard?),
///  - `explain_missed` — a human-readable account of why a node never got
///    the message, using the caller-supplied neighbor list to distinguish
///    "all neighbors missed too" from "neighbors heard it but every one of
///    them was suppressed",
///  - `redundancy_by_transmitter` — which transmissions burned the
///    redundant-airtime budget (the Ni et al. storm metric), attributed to
///    the transmitter that caused each duplicate reception.
///
/// This module is pure data processing over an event snapshot: it needs
/// no simulator and no armed log.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/event_log.hpp"

namespace mldcs::obs {

/// What the log records about one node within one broadcast.
struct NodeFate {
  bool received = false;
  bool transmitted = false;
  bool designated = false;
  bool suppressed = false;  ///< received but never designated by anyone
  std::uint32_t delivered_by = kNoNode;  ///< transmitter of the first copy
  std::uint32_t designated_by = kNoNode; ///< transmitter that designated it
  std::uint64_t hop = 0;                 ///< hop of the first reception
  std::uint64_t duplicates_heard = 0;    ///< already-held copies received
  std::uint64_t rx_event = kNoEvent;     ///< id of the first-reception event
};

/// One broadcast reconstructed from its event segment.
struct ReplayedBroadcast {
  std::uint32_t source = kNoNode;
  /// Raw tag from the kBroadcast event:
  /// (self_pruned << 16) | (reception_model << 8) | scheme.
  std::uint32_t scheme_tag = 0;
  std::uint64_t begin_event = kNoEvent;  ///< id of the kBroadcast event

  // Outcome counters, field-for-field the simulator's BroadcastResult
  // (reachable comes from the kBroadcast event; the rest are folds over
  // the segment's events).
  std::uint64_t transmissions = 0;
  std::uint64_t delivered = 0;
  std::uint64_t max_hops = 0;
  std::uint64_t reachable = 0;
  std::uint64_t redundant_receptions = 0;

  /// Per-node fates, indexed by node id (sized to the largest id seen; a
  /// node the log never mentions reads as "not received").
  std::vector<NodeFate> fates;

  /// Duplicate receptions caused per *transmitter*, indexed by node id
  /// (the redundancy attribution; see redundancy_by_transmitter).
  std::vector<std::uint64_t> dup_caused;

  /// Fate of `node` (bounds-safe: an id past `fates` reads as unheard).
  [[nodiscard]] NodeFate fate(std::uint32_t node) const {
    return node < fates.size() ? fates[node] : NodeFate{};
  }
};

/// Reconstruct every broadcast in the stream (events between consecutive
/// kBroadcast markers form one segment; non-broadcast event types are
/// ignored).  `events` must be in id order, as events_snapshot returns.
[[nodiscard]] std::vector<ReplayedBroadcast> replay_broadcasts(
    std::span<const Event> events);

/// Per-transmitter count of duplicate receptions it caused, descending by
/// count (ties by node id).  The counts sum to r.redundant_receptions.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>>
redundancy_by_transmitter(const ReplayedBroadcast& r);

/// Human-readable account of why `node` did not receive the message in
/// `r`, examining the fates of its `neighbors` (pass the node's 1-hop
/// neighbor ids from the graph).  Also meaningful for delivered nodes
/// (reports who delivered/designated them).
[[nodiscard]] std::string explain_missed(
    const ReplayedBroadcast& r, std::uint32_t node,
    std::span<const std::uint32_t> neighbors);

}  // namespace mldcs::obs
