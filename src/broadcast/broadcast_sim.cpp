#include "broadcast/broadcast_sim.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/relay_skyline.hpp"
#include "core/invariants.hpp"
#include "obs/telemetry.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast {

namespace {

/// Frontiers of at least this many transmitters compute their skyline sets
/// on the pool.  Measured on the ~1000-node paper deployment (10 seeds,
/// 4-core x86-64, Release): a broadcast took 2.5-3.0 ms at every threshold
/// from 4 to 32 against 5.0-7.8 ms inline, and lost ground from 48 up
/// (3.7 ms at 64, 5.5 ms at 128) as fewer frontiers qualified.
constexpr std::size_t kParallelFrontier = 16;

/// Each thread's relay batch, kept across broadcasts: a warmed-up thread
/// computes its frontiers' sets without allocating.
thread_local detail::RelayBatch t_batch;

/// The skyline sets of simulate_broadcast, computed a frontier at a time:
/// prepare() runs the frontier as one relay batch — on the pool from
/// kParallelFrontier transmitters, inline below that or without a pool —
/// and operator() reads the sets back in frontier order, the order in
/// which deliver_gated's FIFO transmits.  A set depends only on (graph,
/// relay), so every pool size gives the same sets.
class FrontierSkylines {
 public:
  FrontierSkylines(const net::DiskGraph& g, sim::ThreadPool* pool)
      : g_(g), pool_(pool) {}

  void prepare(std::span<const net::NodeId> frontier) {
    batch_.compute(g_, frontier,
                   frontier.size() >= kParallelFrontier ? pool_ : nullptr,
                   obs::Phase::kBroadcast);
    frontier_ = frontier;
    next_ = 0;
  }

  std::span<const net::NodeId> operator()([[maybe_unused]] net::NodeId u) {
    MLDCS_DCHECK(next_ < frontier_.size() && frontier_[next_] == u,
                 "transmitter " << u << " out of frontier order");
    return batch_.set(next_++);
  }

 private:
  const net::DiskGraph& g_;
  sim::ThreadPool* pool_;
  detail::RelayBatch& batch_ = t_batch;  ///< the calling thread's
  std::span<const net::NodeId> frontier_;
  std::size_t next_ = 0;  ///< frontier_[next_] transmits next
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
