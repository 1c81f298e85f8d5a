#pragma once

/// \file sharded_cache.hpp
/// Sharded incremental MLDCS forwarding sets: one serial `ShardCache` per
/// engine shard, recomputed inside the engine's per-step barrier.
///
/// The single-engine `SkylineCache` parallelizes *within* one dirty set
/// (self-scheduled relay blocks into one slotted store).  At deployment
/// scale the better unit of parallelism is the shard: each
/// `net::ShardedEngine` tile gets its own cache — private slotted set
/// store, private workspace, private dirty set (the same
/// detail::SlotStore and detail::DirtyRelays the single engine uses,
/// cache_store.hpp) — maintaining forwarding sets for exactly the relays
/// the tile owns.  Because an owned relay's
/// adjacency in its shard's region graph is identical to the whole-plane
/// adjacency (sorted global NodeIds — the halo guarantee), the per-relay
/// inner loop
/// (relay_skyline.hpp) produces byte-identical sets, so
/// `ShardedSkylineCache::forwarding_set(u)` — which reads the owner
/// shard's store — equals the single-engine cache after every step.  A
/// relay that crosses a border moved, so its new owner marks it dirty and
/// never serves a stale slot.
///
/// Concurrency contract: `ShardCache::update` runs on the engine's worker
/// threads, one shard per call, with **zero cross-shard locking** — it is
/// `MLDCS_NO_LOCK` and therefore touches no telemetry registry and no
/// event log (both lock-light, not lock-free); its `obs::Scope` is
/// lock-free on the pool's registered workers, armed trace included.
/// Every counter it keeps is a plain member; the composite sums them over
/// shards and reports after the barrier, on the caller thread, under the
/// same `cache.*` names as the single engine.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "broadcast/cache_store.hpp"
#include "broadcast/relay_skyline.hpp"
#include "core/annotations.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/node.hpp"
#include "net/sharded_engine.hpp"
#include "obs/event_log.hpp"

namespace mldcs::bcast {

/// One shard's forwarding-set cache: serial dirty-relay maintenance over a
/// region-mode graph, restricted to the relays this shard owns.  Slot
/// indexing is by global NodeId (dense arrays of the full deployment size),
/// so lookups need no id translation.
class ShardCache {
 public:
  /// Full initial sweep over the relays `owner_of` assigns to `shard`.
  /// `g` (the shard's region graph) and the `owner_of` span (the engine's
  /// live owner map) must outlive the cache.
  ShardCache(const net::DynamicDiskGraph& g, std::uint32_t shard,
             std::span<const std::uint32_t> owner_of);

  /// Recompute the owned relays dirtied by this shard's `delta` (already
  /// applied to the graph).  Serial, shard-local, lock-free; steady-state
  /// allocation-free outside member-scratch growth.
  MLDCS_HOT_PATH MLDCS_NO_LOCK void update(
      const net::DynamicDiskGraph::StepDelta& delta);

  /// The cached forwarding set of relay `u`, sorted ascending.  Valid only
  /// while this shard owns `u` (the composite routes queries to owners).
  [[nodiscard]] std::span<const net::NodeId> forwarding_set(
      net::NodeId u) const noexcept {
    return store_.get(u);
  }

  [[nodiscard]] std::uint32_t arc_count(net::NodeId u) const noexcept {
    return arc_counts_[u];
  }

  /// Owned relays recomputed by the most recent update (sorted ascending).
  [[nodiscard]] std::span<const net::NodeId> last_dirty() const noexcept {
    return dirty_.relays();
  }

  [[nodiscard]] std::uint64_t recompute_count() const noexcept {
    return recomputes_;
  }
  [[nodiscard]] std::uint64_t compaction_count() const noexcept {
    return store_.stats().compactions;
  }
  [[nodiscard]] std::uint64_t update_count() const noexcept {
    return updates_;
  }
  [[nodiscard]] std::size_t store_size() const noexcept {
    return store_.size();
  }
  /// Store accounting, summed over shards by the composite's telemetry.
  [[nodiscard]] detail::StoreStats store_stats() const noexcept {
    return store_.stats();
  }

  /// Deliberately corrupt relay `u`'s slot (watchdog tests only).
  void corrupt_slot_for_testing(net::NodeId u) {
    store_.corrupt_slot_for_testing(u);
  }

 private:
  [[nodiscard]] bool owned(net::NodeId u) const noexcept {
    return owner_of_[u] == shard_;
  }
  MLDCS_ALLOC_OK void full_sweep();
  MLDCS_HOT_PATH MLDCS_NO_LOCK void recompute_marked();

  const net::DynamicDiskGraph* g_;
  std::uint32_t shard_;
  std::span<const std::uint32_t> owner_of_;

  detail::SlotStore store_;
  std::vector<std::uint32_t> arc_counts_;
  detail::DirtyRelays dirty_;
  detail::RelayScratch scratch_;  ///< the shard *is* the worker

  std::uint64_t recomputes_ = 0;
  std::uint64_t updates_ = 0;
};

/// Whole-deployment forwarding sets over a ShardedEngine: one ShardCache
/// per shard, updated inside the engine's step barrier via the shard hook,
/// queried by owner routing.  Drop-in equivalent of the single-engine
/// `SkylineCache` (same query surface, same kCacheUpdate event per step,
/// bit-identical sets).
class ShardedSkylineCache {
 public:
  /// Builds every shard's cache (initial sweeps run in parallel on the
  /// engine's pool) and installs the engine's shard hook.  The engine must
  /// outlive this cache, which must be the engine's only hook client.
  explicit ShardedSkylineCache(net::ShardedEngine& engine);
  ~ShardedSkylineCache();

  ShardedSkylineCache(const ShardedSkylineCache&) = delete;
  ShardedSkylineCache& operator=(const ShardedSkylineCache&) = delete;

  /// One fused mobility step: engine ownership commit, parallel per-shard
  /// graph apply + dirty recompute (one barrier), then position commit and
  /// step-level reporting.  Arguments as in ShardedEngine::step.
  MLDCS_HOT_PATH void step(std::span<const net::Node> current,
                           std::span<const net::NodeId> moved_hint);

  [[nodiscard]] std::size_t size() const noexcept { return engine_->size(); }

  /// The cached forwarding set of relay `u` (owner shard's store).
  [[nodiscard]] std::span<const net::NodeId> forwarding_set(
      net::NodeId u) const noexcept {
    return shards_[engine_->owner_of(u)]->forwarding_set(u);
  }
  [[nodiscard]] std::uint32_t arc_count(net::NodeId u) const noexcept {
    return shards_[engine_->owner_of(u)]->arc_count(u);
  }

  /// The graph holding relay `u`'s full 1-hop set: its owner shard's
  /// region graph (the halo guarantee), the watchdog's reference input.
  [[nodiscard]] const net::DynamicDiskGraph& graph_of(
      net::NodeId u) const noexcept {
    return engine_->shard_graph(engine_->owner_of(u));
  }

  /// Total forwarding-set cardinality over all relays (owner-routed scan).
  [[nodiscard]] std::size_t total_forwarders() const;

  /// Owned relays recomputed in the most recent step, across all shards.
  [[nodiscard]] std::uint64_t last_dirty_count() const noexcept {
    return last_dirty_count_;
  }
  [[nodiscard]] std::uint64_t recompute_count() const noexcept;
  [[nodiscard]] std::uint64_t update_count() const noexcept {
    return updates_;
  }

  /// Flight-recorder id of the most recent step's kCacheUpdate event
  /// (parented to the engine's kShardExchange).
  [[nodiscard]] std::uint64_t last_update_event() const noexcept {
    return last_update_event_;
  }

  [[nodiscard]] const net::ShardedEngine& engine() const noexcept {
    return *engine_;
  }
  [[nodiscard]] ShardCache& shard(std::size_t s) noexcept {
    return *shards_[s];
  }
  [[nodiscard]] const ShardCache& shard(std::size_t s) const noexcept {
    return *shards_[s];
  }

  /// Corrupt relay `u`'s slot in its owner shard (watchdog tests only).
  void corrupt_slot_for_testing(net::NodeId u) {
    shards_[engine_->owner_of(u)]->corrupt_slot_for_testing(u);
  }

 private:
  [[nodiscard]] detail::StoreStats store_stats() const noexcept;

  net::ShardedEngine* engine_;
  std::vector<std::unique_ptr<ShardCache>> shards_;
  std::uint64_t updates_ = 0;
  std::uint64_t last_dirty_count_ = 0;
  std::uint64_t last_update_event_ = obs::kNoEvent;
};

}  // namespace mldcs::bcast
