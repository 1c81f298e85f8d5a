#include "broadcast/broadcast_sim.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/relay_skyline.hpp"
#include "obs/telemetry.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast {

namespace {

/// Skyline broadcasts over graphs of at least this many nodes compute
/// their transmitter closure on sim::fan_out_pool().  Measured on 4-core
/// x86-64 (Release, medians of 300 closures from node 0, seeds 1-3): at
/// the paper's density the pool took 45-59 us against 88-137 us inline at
/// 33 nodes, 314-356 against 761-916 us at 257 and 1.09-1.23 against
/// 3.3-4.0 ms at 999, broke even at 17-25 and lost at 9 (21-25 against
/// 7-15 us); at degree 10 it took 41-47 against 49-60 us at 33 nodes.
/// So the pool starts far below DiskGraph::kParallelBuildNodes.
constexpr std::size_t kParallelClosureNodes = 32;

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
  DeliveryScratch scratch;
  const bool pruned = gate != nullptr;
  if (scheme == Scheme::kSkyline) {
    // Every transmitter's set first, gated, in one pass over the closure
    // of the source (a set depends only on (graph, relay), so every pool
    // size gives the same sets); then one serial delivery reading them by
    // node.
    const obs::Scope scope(obs::Phase::kBroadcast);
    RelayBatch& batch = thread_batch();
    if (source < g.size()) {
      batch.closure(
          g, source, gate,
          g.size() >= kParallelClosureNodes ? sim::fan_out_pool() : nullptr,
          obs::Phase::kBroadcast);
    }
    const auto sets = [&batch](net::NodeId u) { return batch.set(u); };
    return deliver_gated(g, source, scheme, sets, reception, scratch, nullptr,
                         pruned);
  }
  // The 2-hop schemes keep forwarding_set's LocalView path.
  std::vector<net::NodeId> two_hop;
  const auto sets = [&](net::NodeId u) -> std::span<const net::NodeId> {
    two_hop = forwarding_set(g, u, scheme);
    return two_hop;
  };
  return deliver_gated(g, source, scheme, sets, reception, scratch, gate,
                       pruned);
}

}  // namespace mldcs::bcast
