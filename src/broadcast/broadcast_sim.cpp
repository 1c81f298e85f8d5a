#include "broadcast/broadcast_sim.hpp"

#include "broadcast/relay_skyline.hpp"
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

}  // namespace

void detail::record_broadcast(const BroadcastResult& r) {
  static BcastTelemetry t;
  t.broadcasts.add();
  t.transmissions.add(r.transmissions);
  t.redundant.add(r.redundant_receptions);
  t.tx_per_broadcast.record(r.transmissions);
  t.delivery_permille.record(
      static_cast<std::uint64_t>(1000.0 * r.delivery_ratio()));
  t.max_hops.record(r.max_hops);
}

BroadcastResult simulate_broadcast(const net::DiskGraph& g, net::NodeId source,
                                   Scheme scheme, ReceptionModel reception) {
  return detail::simulate_broadcast(g, source, scheme, reception, nullptr);
}

BroadcastResult detail::simulate_broadcast(const net::DiskGraph& g,
                                           net::NodeId source, Scheme scheme,
                                           ReceptionModel reception,
                                           Gate<net::DiskGraph> gate) {
  // Skyline sets come from 1-hop information through the shared relay loop.
  // Size its scratch once for the largest local disk set, so it does not
  // regrow as bigger transmitters come up (Lemma 8 bounds the arcs at 2 per
  // disk).  The 2-hop schemes keep forwarding_set's LocalView path.
  RelayScratch relay;
  if (scheme == Scheme::kSkyline) {
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
  std::vector<net::NodeId> two_hop;
  const auto sets = [&](net::NodeId u) -> std::span<const net::NodeId> {
    if (scheme != Scheme::kSkyline) {
      two_hop = forwarding_set(g, u, scheme);
      return two_hop;
    }
    relay_forwarding_set(g, u, relay);
    return relay.relay_ids;
  };
  DeliveryScratch scratch;
  return deliver_gated(g, source, scheme, sets, reception, scratch, gate);
}

}  // namespace mldcs::bcast
