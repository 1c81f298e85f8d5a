#include "broadcast/broadcast_sim.hpp"

#include <algorithm>
#include <span>

#include "broadcast/relay_skyline.hpp"
#include "obs/event_log.hpp"
#include "obs/scope.hpp"
#include "obs/telemetry.hpp"

namespace mldcs::bcast {

namespace {

/// Broadcast telemetry (docs/OBSERVABILITY.md): storm pressure
/// (transmissions, redundant receptions) and coverage outcome per
/// simulated broadcast.
struct BcastTelemetry {
  obs::Counter& broadcasts = obs::registry().counter("bcast.broadcasts");
  obs::Counter& transmissions =
      obs::registry().counter("bcast.transmissions");
  obs::Counter& redundant =
      obs::registry().counter("bcast.redundant_receptions");
  obs::Histogram& tx_per_broadcast =
      obs::registry().histogram("bcast.transmissions_per_broadcast");
  obs::Histogram& delivery_permille =
      obs::registry().histogram("bcast.delivery_permille");
  obs::Histogram& max_hops = obs::registry().histogram("bcast.max_hops");
};

BcastTelemetry& bcast_telemetry() {
  static BcastTelemetry t;
  return t;
}

/// Receivers of a transmission by u under the chosen reception model.
/// Link reception is u's adjacency span; physical coverage fills `scratch`
/// with everyone inside B(u, r_u).  (O(N) scan; the physical model is only
/// used in the Figure 5.6 study on small graphs.)
std::span<const net::NodeId> receivers_of(const net::DiskGraph& g,
                                          net::NodeId u, ReceptionModel model,
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
std::uint64_t reachable_count(const net::DiskGraph& g, net::NodeId source,
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

}  // namespace

BroadcastResult simulate_broadcast(const net::DiskGraph& g, net::NodeId source,
                                   Scheme scheme, ReceptionModel reception) {
  const obs::Scope scope(obs::Phase::kBroadcast);
  BroadcastResult result;
  if (source >= g.size()) return result;

  std::vector<std::uint8_t> received(g.size(), 0);
  std::vector<std::uint8_t> designated(g.size(), 0);
  std::vector<std::uint64_t> hops(g.size(), 0);
  // Every node enters the FIFO at most once (when first designated), so a
  // g.size() buffer with a head index is the whole queue; the reachability
  // BFS borrows it first.
  std::vector<net::NodeId> pending(g.size());
  result.reachable = reachable_count(g, source, pending, received);

  // Skyline sets come from 1-hop information through the shared relay loop
  // (relay_skyline.hpp); the 2-hop schemes keep their LocalView path.
  detail::RelayScratch relay;
  if (scheme == Scheme::kSkyline) {
    // Size the scratch once for the largest local disk set, so it does not
    // regrow step by step as bigger transmitters come up (Lemma 8 bounds
    // the arcs at 2 per disk).
    std::size_t max_disks = 1;
    for (net::NodeId u = 0; u < g.size(); ++u) {
      max_disks = std::max(max_disks, g.degree(u) + 1);
    }
    relay.ws.reserve(max_disks);
    relay.disks.reserve(max_disks);
    relay.arcs.reserve(2 * max_disks);
    relay.sky_set.reserve(2 * max_disks);
    relay.relay_ids.reserve(max_disks);
  }
  std::vector<net::NodeId> other_fwd;
  std::vector<net::NodeId> physical_rx;

  // Flight recorder (docs/OBSERVABILITY.md): hoisted so the disarmed run
  // pays one relaxed load per broadcast, not per reception.  rx_event[v]
  // remembers the reception that delivered v's first copy — the causal
  // parent of v's own transmission, and of its suppression verdict.
  const bool ev = obs::events_enabled();
  std::vector<std::uint64_t> rx_event;
  if (ev) {
    rx_event.assign(g.size(), obs::kNoEvent);
    obs::emit_event(
        obs::EventType::kBroadcast, source,
        (static_cast<std::uint32_t>(reception) << 8) |
            static_cast<std::uint32_t>(scheme),
        obs::kNoEvent, result.reachable);
  }

  // FIFO order of transmissions keeps hop counts BFS-ordered.
  std::size_t head = 0;
  std::size_t tail = 0;
  received[source] = 1;
  designated[source] = 1;
  pending[tail++] = source;
  result.delivered = 1;

  while (head < tail) {
    const net::NodeId u = pending[head++];
    ++result.transmissions;
    std::uint64_t tx_id = obs::kNoEvent;
    if (ev) {
      tx_id = obs::emit_event(obs::EventType::kTx,
                              static_cast<std::uint32_t>(u), obs::kNoNode,
                              rx_event[u], hops[u]);
    }

    // The sender names its forwarding set from its own local knowledge.
    std::span<const net::NodeId> fwd;
    if (scheme == Scheme::kSkyline) {
      detail::relay_forwarding_set(g, u, relay);
      fwd = relay.relay_ids;
    } else if (scheme != Scheme::kFlooding) {  // flooding names everyone
      other_fwd = forwarding_set(g, u, scheme);
      fwd = other_fwd;
    }

    for (const net::NodeId v : receivers_of(g, u, reception, physical_rx)) {
      const bool named = scheme == Scheme::kFlooding ||
                         std::binary_search(fwd.begin(), fwd.end(), v);
      if (!received[v]) {
        received[v] = 1;
        hops[v] = hops[u] + 1;
        ++result.delivered;
        result.max_hops = std::max(result.max_hops, hops[v]);
        if (ev) {
          rx_event[v] = obs::emit_event(
              obs::EventType::kRx, static_cast<std::uint32_t>(v),
              static_cast<std::uint32_t>(u), tx_id, hops[v]);
        }
      } else {
        ++result.redundant_receptions;
        if (ev) {
          obs::emit_event(obs::EventType::kDuplicateRx,
                          static_cast<std::uint32_t>(v),
                          static_cast<std::uint32_t>(u), tx_id, hops[u] + 1);
        }
      }
      // A designated node has been queued, and so transmits exactly once.
      if (named && !designated[v]) {
        designated[v] = 1;
        if (ev) {
          obs::emit_event(obs::EventType::kDesignate,
                          static_cast<std::uint32_t>(v),
                          static_cast<std::uint32_t>(u), tx_id, 0);
        }
        pending[tail++] = v;
      }
    }
  }

  if (ev) {
    // Suppression verdicts: nodes that received but were never designated
    // by any transmission will stay silent — the storm saving, and the
    // delivery risk, of sender-designated forwarding.
    for (net::NodeId v = 0; v < g.size(); ++v) {
      if (received[v] && !designated[v]) {
        obs::emit_event(obs::EventType::kSuppress,
                        static_cast<std::uint32_t>(v), obs::kNoNode,
                        rx_event[v], 0);
      }
    }
  }

  BcastTelemetry& t = bcast_telemetry();
  t.broadcasts.add();
  t.transmissions.add(result.transmissions);
  t.redundant.add(result.redundant_receptions);
  t.tx_per_broadcast.record(result.transmissions);
  t.delivery_permille.record(
      static_cast<std::uint64_t>(1000.0 * result.delivery_ratio()));
  t.max_hops.record(result.max_hops);
  return result;
}

}  // namespace mldcs::bcast
