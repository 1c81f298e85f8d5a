#include "broadcast/broadcast_sim.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "broadcast/relay_skyline.hpp"
#include "obs/telemetry.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast {

namespace {

using detail::relay_forwarding_set;
using detail::RelayScratch;

/// Frontiers of at least this many transmitters compute their skyline sets
/// on the pool.  Measured on the ~1000-node paper deployment (10 seeds,
/// 4-core x86-64, Release): a broadcast took 2.5-3.0 ms at every threshold
/// from 4 to 32 against 5.0-7.8 ms inline, and lost ground from 48 up
/// (3.7 ms at 64, 5.5 ms at 128) as fewer frontiers qualified.
constexpr std::size_t kParallelFrontier = 16;

/// Each thread's relay scratch, kept across broadcasts: slot 0 names the
/// sets the thread computes itself, and slot s the sets of participant s
/// of the frontiers it hands to the pool.  Buffers stay at their
/// high-water capacity, so a warmed-up thread names sets without
/// allocating.
thread_local std::vector<RelayScratch> t_relay(1);

/// The skyline sets of simulate_broadcast, named a frontier at a time.  A
/// frontier of kParallelFrontier or more transmitters, with a pool to run
/// on, has its sets computed up front in self-scheduled blocks, each set
/// into its owner's stretch of a CSR-shaped buffer (a node's set is a
/// subset of its neighbors); a smaller one, or any frontier without a
/// pool, names each set when its transmitter comes up.  A set depends only
/// on (graph, relay), so both ways give the same sets.
class FrontierSkylines {
 public:
  FrontierSkylines(const net::DiskGraph& g, sim::ThreadPool* pool)
      : g_(g), pool_(pool) {}

  void prepare(std::span<const net::NodeId> frontier) {
    pooled_ = pool_ != nullptr && frontier.size() >= kParallelFrontier;
    if (!pooled_) return;
    if (first_.empty()) {  // the first pooled frontier sizes the buffers
      const std::size_t n = g_.size();
      first_.resize(n + 1);
      std::size_t max_degree = 0;
      for (net::NodeId u = 0; u < n; ++u) {
        max_degree = std::max(max_degree, g_.degree(u));
        first_[u + 1] = first_[u] + static_cast<std::uint32_t>(g_.degree(u));
      }
      last_.resize(n);
      ids_.resize(first_[n]);
      // Every participant's scratch is sized before anyone claims: one
      // that claims nothing in this broadcast and a hub in the next would
      // otherwise grow its buffers then.
      if (relays_.size() < pool_->size()) relays_.resize(pool_->size());
      for (RelayScratch& relay : relays_) relay.reserve(max_degree);
    }
    pool_->parallel_blocks(
        frontier.size(), detail::kRelayBlock,
        [this, frontier](std::size_t slot, std::size_t lo, std::size_t hi) {
          const obs::Scope block(obs::Phase::kBroadcast);
          RelayScratch& relay = relays_[slot];
          for (std::size_t i = lo; i < hi; ++i) {
            const net::NodeId u = frontier[i];
            relay_forwarding_set(g_, u, relay);
            const auto end = std::copy(relay.relay_ids.begin(),
                                       relay.relay_ids.end(),
                                       ids_.begin() + first_[u]);
            last_[u] = static_cast<std::uint32_t>(end - ids_.begin());
          }
        });
  }

  std::span<const net::NodeId> operator()(net::NodeId u) const {
    if (pooled_) return {ids_.data() + first_[u], ids_.data() + last_[u]};
    RelayScratch& relay = relays_[0];
    relay_forwarding_set(g_, u, relay);
    return relay.relay_ids;
  }

 private:
  const net::DiskGraph& g_;
  sim::ThreadPool* pool_;
  /// The calling thread's scratch; pool participants use it by slot.
  std::vector<RelayScratch>& relays_ = t_relay;
  bool pooled_ = false;  ///< the current frontier's sets are in ids_
  std::vector<std::uint32_t> first_, last_;  ///< u's set: ids_[first_, last_)
  std::vector<net::NodeId> ids_;
};

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
  if (scheme == Scheme::kSkyline) {
    // Skyline sets come from 1-hop information through the shared relay
    // loop, a frontier at a time.
    FrontierSkylines sets(g, sim::fan_out_pool());
    return deliver_gated(g, source, scheme, sets, reception, scratch, gate);
  }
  // The 2-hop schemes keep forwarding_set's LocalView path.
  std::vector<net::NodeId> two_hop;
  const auto sets = [&](net::NodeId u) -> std::span<const net::NodeId> {
    two_hop = forwarding_set(g, u, scheme);
    return two_hop;
  };
  return deliver_gated(g, source, scheme, sets, reception, scratch, gate);
}

}  // namespace mldcs::bcast
