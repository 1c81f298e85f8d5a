#pragma once

/// \file broadcast_sim.hpp
/// Network-wide broadcast under sender-designated forwarding.
///
/// `deliver` is the one implementation of the delivery rule (Chapter 5):
/// the source transmits; transmissions go out in FIFO order, each naming
/// the sender's forwarding set; a node re-transmits (once) iff it has
/// received the message and some sender named it.  It counts transmissions
/// (the broadcast-storm metric), delivery, and hop latency, and can model
/// *physical* reception (any node inside the sender's disk hears it)
/// separately from the bidirectional-link graph used for neighbor
/// knowledge — the distinction at the heart of Figure 5.6.  Each
/// transmission first marks its receptions, then designates: a set is a
/// subset of the sender's receivers, so nothing is searched per reception.
/// The caller supplies the sets: `simulate_broadcast` derives them from a
/// `Scheme` (the skyline sets of every transmitter in one pooled pass
/// before delivery starts), and a caller holding `AllSkylines` or a
/// `SkylineCache` passes its own.  Every broadcast emits flight-recorder
/// events and `bcast.*` telemetry.

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "broadcast/forwarding.hpp"
#include "core/annotations.hpp"
#include "core/invariants.hpp"
#include "net/disk_graph.hpp"
#include "obs/event_log.hpp"
#include "obs/scope.hpp"

namespace mldcs::bcast {

/// Reception model for a transmission by node u.
enum class ReceptionModel {
  kBidirectionalLink,  ///< v hears u iff linked(u, v) (the paper's graph model)
  kPhysicalCoverage,   ///< v hears u iff v is inside B(u, r_u)
};

/// Outcome of one simulated broadcast.
struct BroadcastResult {
  std::uint64_t transmissions = 0;  ///< nodes that transmitted (incl. source)
  std::uint64_t delivered = 0;      ///< nodes that received (incl. source)
  std::uint64_t max_hops = 0;       ///< eccentricity of the delivery tree
  std::uint64_t reachable = 0;      ///< nodes reachable from source in the graph
  /// Receptions of an already-held copy — the redundancy metric of the
  /// broadcast storm analysis (Ni et al. [1]): every one of these is a
  /// wasted airtime slot at the receiver.
  std::uint64_t redundant_receptions = 0;
  /// True if every graph-reachable node received the message.
  [[nodiscard]] bool full_delivery() const noexcept {
    return delivered >= reachable;
  }
  /// Fraction of reachable nodes that received the message.
  [[nodiscard]] double delivery_ratio() const noexcept {
    return reachable == 0 ? 1.0
                          : static_cast<double>(delivered) /
                                static_cast<double>(reachable);
  }
};

/// Bit of the kBroadcast event tag that marks a self-pruned broadcast.
inline constexpr std::uint32_t kSelfPrunedTag = 1u << 16;

/// The O(N) per-broadcast state of `deliver`.  Kept across broadcasts, it
/// stops allocating once grown to the network (an armed flight recorder
/// aside).  Its contents between calls are unspecified.
struct DeliveryScratch {
  std::vector<std::uint8_t> received, queued;
  std::vector<std::uint64_t> hops, rx_event;
  std::vector<net::NodeId> fifo, heard;
};

namespace detail {

/// Adds one finished broadcast to the `bcast.*` telemetry.
void record_broadcast(const BroadcastResult& r);

/// Receivers of a transmission by u under the chosen reception model.
/// Link reception is u's adjacency span; physical coverage fills `scratch`
/// with everyone inside B(u, r_u).  (O(N) scan; the physical model is only
/// used in the Figure 5.6 study on small graphs.)
template <typename Graph>
std::span<const net::NodeId> receivers_of(const Graph& g, net::NodeId u,
                                          ReceptionModel model,
                                          std::vector<net::NodeId>& scratch) {
  if (model == ReceptionModel::kBidirectionalLink) return g.neighbors(u);
  scratch.clear();
  const net::Node& nu = g.node(u);
  for (const net::Node& v : g.nodes()) {
    if (v.id != u && nu.covers(v)) scratch.push_back(v.id);
  }
  return scratch;
}

/// Number of nodes reachable from `source` in the link graph: a BFS that
/// uses `queue` (sized g.size()) as its frontier and clears `seen` after.
template <typename Graph>
std::uint64_t reachable_count(const Graph& g, net::NodeId source,
                              std::vector<net::NodeId>& queue,
                              std::vector<std::uint8_t>& seen) {
  std::size_t head = 0;
  std::size_t tail = 0;
  queue[tail++] = source;
  seen[source] = 1;
  while (head < tail) {
    for (const net::NodeId v : g.neighbors(queue[head++])) {
      if (!seen[v]) {
        seen[v] = 1;
        queue[tail++] = v;
      }
    }
  }
  for (std::size_t i = 0; i < tail; ++i) seen[queue[i]] = 0;
  return tail;
}

/// A receiver gate: a named node is queued only if gate(g, sender, node).
template <typename Graph>
using Gate = bool (*)(const Graph&, net::NodeId, net::NodeId);

/// `deliver` with a receiver gate (nullptr: none), evaluated once per
/// named pair whose node is not queued yet.  A `pruned` broadcast's
/// kBroadcast tag carries kSelfPrunedTag — also when its sets arrive
/// already gated and `gate` is null, as simulate_broadcast's skyline sets
/// do.  Its callers open the broadcast's span.
template <typename Graph, typename Sets>
BroadcastResult deliver_gated(const Graph& g, net::NodeId source,
                              Scheme scheme, const Sets& sets,
                              ReceptionModel reception, DeliveryScratch& s,
                              std::type_identity_t<Gate<Graph>> gate,
                              bool pruned) {
  BroadcastResult result;
  if (source >= g.size()) return result;

  // Every node enters the FIFO at most once (when first queued), so a
  // g.size() buffer with a head index is the whole queue; the reachability
  // BFS borrows it first.
  const std::size_t n = g.size();
  s.received.assign(n, 0);
  s.queued.assign(n, 0);
  s.hops.assign(n, 0);
  s.fifo.resize(n);
  result.reachable = reachable_count(g, source, s.fifo, s.received);

  // Flight recorder (docs/OBSERVABILITY.md): hoisted so the disarmed run
  // pays one relaxed load per broadcast, not per reception.  rx_event[v]
  // remembers the reception that delivered v's first copy — the causal
  // parent of v's own transmission, and of its suppression verdict.
  const bool ev = obs::events_enabled();
  if (ev) {
    s.rx_event.assign(n, obs::kNoEvent);
    obs::emit_event(obs::EventType::kBroadcast, source,
                    (pruned ? kSelfPrunedTag : 0u) |
                        (static_cast<std::uint32_t>(reception) << 8) |
                        static_cast<std::uint32_t>(scheme),
                    obs::kNoEvent, result.reachable);
  }

  // FIFO order of transmissions keeps hop counts BFS-ordered.
  std::size_t head = 0;
  std::size_t tail = 0;
  s.received[source] = 1;
  s.queued[source] = 1;
  s.fifo[tail++] = source;
  result.delivered = 1;

  const bool floods = scheme == Scheme::kFlooding;
  while (head < tail) {
    const net::NodeId u = s.fifo[head++];
    ++result.transmissions;
    std::uint64_t tx_id = obs::kNoEvent;
    if (ev) {
      tx_id = obs::emit_event(obs::EventType::kTx, u, obs::kNoNode,
                              s.rx_event[u], s.hops[u]);
    }

    // Receptions first: everyone who hears u gets a copy or a duplicate.
    const std::span<const net::NodeId> heard =
        receivers_of(g, u, reception, s.heard);
    for (const net::NodeId v : heard) {
      if (!s.received[v]) {
        s.received[v] = 1;
        s.hops[v] = s.hops[u] + 1;
        ++result.delivered;
        result.max_hops = std::max(result.max_hops, s.hops[v]);
        if (ev) {
          s.rx_event[v] =
              obs::emit_event(obs::EventType::kRx, v, u, tx_id, s.hops[v]);
        }
      } else {
        ++result.redundant_receptions;
        if (ev) {
          obs::emit_event(obs::EventType::kDuplicateRx, v, u, tx_id,
                          s.hops[u] + 1);
        }
      }
    }
    // Then designation, in ascending id order as the receivers are: a
    // queued node transmits exactly once.
    const auto designate = [&](net::NodeId v) {
      if (s.queued[v] || (gate != nullptr && !gate(g, u, v))) return;
      s.queued[v] = 1;
      if (ev) obs::emit_event(obs::EventType::kDesignate, v, u, tx_id, 0);
      s.fifo[tail++] = v;
    };
    if (floods) {
      for (const net::NodeId v : heard) designate(v);
    } else {
      for (const net::NodeId v : sets(u)) {
        MLDCS_DCHECK(
            s.received[v] && std::binary_search(heard.begin(), heard.end(), v),
            "node " << v << " is named by " << u << " but does not hear it");
        designate(v);
      }
    }
  }

  if (ev) {
    // Suppression verdicts: nodes that received but were never queued will
    // stay silent — the storm saving, and the delivery risk, of
    // sender-designated forwarding.
    for (net::NodeId v = 0; v < n; ++v) {
      if (s.received[v] && !s.queued[v]) {
        obs::emit_event(obs::EventType::kSuppress, v, obs::kNoNode,
                        s.rx_event[v], 0);
      }
    }
  }
  record_broadcast(result);
  return result;
}

/// simulate_broadcast with a receiver gate (nullptr: none).
[[nodiscard]] BroadcastResult simulate_broadcast(
    const net::DiskGraph& g, net::NodeId source, Scheme scheme,
    ReceptionModel reception, Gate<net::DiskGraph> gate);

}  // namespace detail

/// Deliver one broadcast from `source` over `g`, a DiskGraph or a
/// whole-plane DynamicDiskGraph (read only through size(), neighbors(u) and
/// node(u)/nodes()).  `sets(u)` returns transmitter u's forwarding set,
/// sorted ascending, valid until the next call, and a subset of the nodes
/// that hear u (a debug check asserts that every designee has received);
/// each transmission marks its receptions, then designates over sets(u).
/// Scheme::kFlooding never calls it and names every node that hears a
/// transmission (under physical reception, non-neighbors too).  `scheme`
/// also labels the broadcast in the flight recorder, and the call is one
/// obs::Scope(kBroadcast).  An out-of-range source yields an empty result.
template <typename Graph, typename Sets>
[[nodiscard]] MLDCS_HOT_PATH BroadcastResult deliver(
    const Graph& g, net::NodeId source, Scheme scheme, const Sets& sets,
    ReceptionModel reception, DeliveryScratch& scratch) {
  const obs::Scope scope(obs::Phase::kBroadcast);
  return detail::deliver_gated(g, source, scheme, sets, reception, scratch,
                               nullptr, false);
}

/// Simulate one broadcast from `source` with forwarding sets chosen by
/// `scheme` at every relaying node: `deliver` over sets derived from the
/// graph.  Skyline sets come from 1-hop information only and equal
/// forwarding_set(g, u, Scheme::kSkyline): the calling thread's relay
/// batch (relay_skyline.hpp) computes every transmitter's set in one pass
/// over the transmitter closure before delivery starts — on
/// sim::default_pool() for graphs of 32 or more nodes (inline inside
/// another dispatch), with the same result.  The 2-hop schemes use
/// forwarding_set's LocalView path, one transmitter at a time.
[[nodiscard]] BroadcastResult simulate_broadcast(
    const net::DiskGraph& g, net::NodeId source, Scheme scheme,
    ReceptionModel reception = ReceptionModel::kBidirectionalLink);

}  // namespace mldcs::bcast
