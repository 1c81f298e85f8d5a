#pragma once

/// \file skyline_cache.hpp
/// Incrementally maintained whole-network MLDCS forwarding sets.
///
/// The Section 5.1.1 argument for the skyline scheme is that forwarding
/// sets depend only on *fresh 1-hop* information — which also means that
/// when a node moves, the only relays whose forwarding set can change are
/// the node itself, its current neighbors, and the endpoints of any links
/// that flipped.  `SkylineCache` exploits exactly that: it holds the result
/// of a whole-network sweep (the CSR store of bcast::compute_all_skylines)
/// and, fed the `StepDelta` of a `net::DynamicDiskGraph`, recomputes only
/// the **dirty** relays (detail::DirtyRelays states the rule).  This is
/// exact: after every update the cached sets are bit-identical to a
/// from-scratch `DiskGraph::build` + `compute_all_skylines` on the same
/// positions (differential-tested over long mobility runs in
/// tests/broadcast/skyline_cache_test.cpp).
///
/// Dirty relays are recomputed as one relay batch on the pool (the loop
/// compute_all_skylines runs — see relay_skyline.hpp), and results are
/// patched serially, in relay order, into the slotted set store, which
/// compacts once half of it is dead space.  The dirty rule and the store
/// are shared with the sharded cache (cache_store.hpp); only the recompute
/// loop is this engine's own.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/cache_store.hpp"
#include "broadcast/relay_skyline.hpp"
#include "core/annotations.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/node.hpp"
#include "obs/event_log.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast {

/// Cached all-relay skyline forwarding sets over a DynamicDiskGraph.
class SkylineCache {
 public:
  /// Full initial sweep over `g` (which must outlive the cache).  `pool` is
  /// retained and reused by every update — steady-state maintenance spawns
  /// no threads.
  SkylineCache(const net::DynamicDiskGraph& g, sim::ThreadPool& pool);

  /// Recompute the relays dirtied by `delta` (the return value of the
  /// graph's `apply` for this step, which must already be applied).
  /// Steady-state updates are allocation-free at any pool size: all
  /// scratch (dirty set, relay batch) is retained across calls.
  MLDCS_HOT_PATH void update(const net::DynamicDiskGraph::StepDelta& delta);

  [[nodiscard]] std::size_t size() const noexcept { return g_->size(); }

  /// The cached skyline/MLDCS forwarding set of relay `u`, sorted
  /// ascending.  Identical to compute_all_skylines(...).forwarding_set(u).
  [[nodiscard]] std::span<const net::NodeId> forwarding_set(
      net::NodeId u) const noexcept {
    return store_.get(u);
  }

  /// Cached skyline arc count of relay `u` (Lemma 8 instrumentation).
  [[nodiscard]] std::uint32_t arc_count(net::NodeId u) const noexcept {
    return arc_counts_[u];
  }

  /// Total forwarding-set cardinality over all relays.
  [[nodiscard]] std::size_t total_forwarders() const noexcept {
    return store_.stats().live;
  }

  /// The graph holding relay `u`'s full 1-hop set (the watchdog's
  /// from-scratch reference input).
  [[nodiscard]] const net::DynamicDiskGraph& graph_of(
      net::NodeId /*u*/) const noexcept {
    return *g_;
  }

  // --- Maintenance instrumentation -----------------------------------------

  /// Relays recomputed by the most recent update (sorted ascending; empty
  /// after a no-op step).  Valid until the next update.
  [[nodiscard]] std::span<const net::NodeId> last_dirty() const noexcept {
    return dirty_.relays();
  }

  /// Total relays recomputed over the cache's lifetime (excluding the
  /// initial sweep).
  [[nodiscard]] std::uint64_t recompute_count() const noexcept {
    return recomputes_;
  }

  /// Times the slotted store was repacked.
  [[nodiscard]] std::uint64_t compaction_count() const noexcept {
    return store_.stats().compactions;
  }

  /// Updates applied (excluding the initial sweep).
  [[nodiscard]] std::uint64_t update_count() const noexcept {
    return updates_;
  }

  /// Flight-recorder id of the most recent update's kCacheUpdate event
  /// (obs::kNoEvent when collection is disarmed) — the causal parent for a
  /// watchdog check auditing that update.
  [[nodiscard]] std::uint64_t last_update_event() const noexcept {
    return last_update_event_;
  }

  /// Deliberately corrupt relay `u`'s cached forwarding set (watchdog tests
  /// only; see SlotStore::corrupt_slot_for_testing).
  void corrupt_slot_for_testing(net::NodeId u) {
    store_.corrupt_slot_for_testing(u);
  }

  /// Current size of the slotted store (live + slack + dead entries).
  [[nodiscard]] std::size_t store_size() const noexcept {
    return store_.size();
  }

 private:
  MLDCS_ALLOC_OK void full_sweep();
  void recompute_dirty();

  const net::DynamicDiskGraph* g_;
  sim::ThreadPool* pool_;

  detail::SlotStore store_;
  std::vector<std::uint32_t> arc_counts_;
  detail::DirtyRelays dirty_;

  /// The recompute's sets and scratch.  Kept across updates, it holds its
  /// high-water capacity, which makes steady-state updates allocation-free.
  detail::RelayBatch batch_;

  std::uint64_t recomputes_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t last_update_event_ = obs::kNoEvent;
};

}  // namespace mldcs::bcast
