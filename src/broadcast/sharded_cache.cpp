#include "broadcast/sharded_cache.hpp"

#include "obs/event_log.hpp"
#include "obs/scope.hpp"
#include "obs/telemetry.hpp"

namespace mldcs::bcast {

namespace {

/// The one sharded-only series; the shared `cache.*` set is recorded by
/// detail::report_cache_step, post-barrier on the caller thread (shard
/// updates themselves are lock-free and touch no registry).
struct ShardedCacheTelemetry {
  obs::Histogram& dirty_per_shard =
      obs::registry().histogram("cache.dirty_relays_per_shard");
};

ShardedCacheTelemetry& sharded_cache_telemetry() {
  static ShardedCacheTelemetry t;
  return t;
}

}  // namespace

ShardCache::ShardCache(const net::DynamicDiskGraph& g, std::uint32_t shard,
                       std::span<const std::uint32_t> owner_of)
    : g_(&g),
      shard_(shard),
      owner_of_(owner_of),
      store_(g.size()),
      arc_counts_(g.size(), 0),
      dirty_(g.size()) {
  full_sweep();
}

MLDCS_ALLOC_OK void ShardCache::full_sweep() {
  // The initial everything-dirty build is cache recompute too; update()
  // tags the incremental path, this tags the bootstrap.
  const obs::Scope scope(obs::Phase::kCacheRecompute);
  dirty_.mark_all([this](net::NodeId u) { return owned(u); });
  recompute_marked();
  dirty_.clear();
}

MLDCS_HOT_PATH MLDCS_NO_LOCK void ShardCache::update(
    const net::DynamicDiskGraph::StepDelta& delta) {
  const obs::Scope scope(obs::Phase::kCacheRecompute);
  // Ownership filter: the dirty rule runs over the full region (halo movers
  // dirty owned neighbors) but only owned relays are recomputed — every
  // other resident is some neighbor shard's problem.  Evicted movers fall
  // through harmlessly: they own nothing here and their post-apply
  // neighbor list is empty (the removals are in link_changed).  A
  // migration arrival moved into this shard's tile, so it is a mover here.
  dirty_.collect(*g_, delta, [this](net::NodeId w) { return owned(w); });
  recomputes_ += dirty_.relays().size();
  recompute_marked();
  ++updates_;
}

MLDCS_HOT_PATH MLDCS_NO_LOCK void ShardCache::recompute_marked() {
  // Serial and in ascending relay order: the store layout is deterministic
  // in the dirty sequence alone, independent of shard count or thread
  // placement (the shard itself is the unit of parallelism).
  for (const net::NodeId u : dirty_.relays()) {
    arc_counts_[u] = detail::relay_forwarding_set(*g_, u, scratch_);
    store_.store(u, scratch_.relay_ids);
  }
  if (store_.needs_compaction()) store_.compact();
}

ShardedSkylineCache::ShardedSkylineCache(net::ShardedEngine& engine)
    : engine_(&engine) {
  // Eager registration: materialize the cache.* series now, so a
  // /snapshot.json taken before the first step already carries them
  // instead of waiting for the first recompute to land.
  detail::register_cache_telemetry();
  sharded_cache_telemetry();
  const std::size_t shards = engine.shard_count();
  shards_.resize(shards);
  engine.pool().parallel_for(shards, [&](std::size_t s) {
    shards_[s] = std::make_unique<ShardCache>(
        engine_->shard_graph(s), static_cast<std::uint32_t>(s),
        engine_->owner_map());
  });
  engine.set_shard_hook([this](std::size_t s) {
    shards_[s]->update(engine_->shard_delta(s));
    // Feed the observer load table (introspection /shards, blackbox
    // heartbeats) — one relaxed store into shard s's own slot.
    engine_->publish_shard_dirty(s, shards_[s]->last_dirty().size());
  });
}

ShardedSkylineCache::~ShardedSkylineCache() {
  engine_->set_shard_hook(nullptr);
}

MLDCS_HOT_PATH void ShardedSkylineCache::step(
    std::span<const net::Node> current,
    std::span<const net::NodeId> moved_hint) {
  const obs::Scope scope(obs::Phase::kCacheUpdate);
  const detail::StoreStats before = store_stats();
  engine_->step(current, moved_hint);  // shard hook recomputes dirty relays

  ++updates_;
  last_dirty_count_ = 0;
  for (const auto& sh : shards_) {
    last_dirty_count_ += sh->last_dirty().size();
    sharded_cache_telemetry().dirty_per_shard.record(sh->last_dirty().size());
  }
  last_update_event_ = obs::emit_event(
      obs::EventType::kCacheUpdate,
      static_cast<std::uint32_t>(last_dirty_count_), obs::kNoNode,
      engine_->last_event(), updates_);
  detail::report_cache_step(last_dirty_count_, before, store_stats());
}

detail::StoreStats ShardedSkylineCache::store_stats() const noexcept {
  detail::StoreStats total;
  for (const auto& sh : shards_) total += sh->store_stats();
  return total;
}

std::size_t ShardedSkylineCache::total_forwarders() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < engine_->size(); ++i) {
    total += forwarding_set(static_cast<net::NodeId>(i)).size();
  }
  return total;
}

std::uint64_t ShardedSkylineCache::recompute_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->recompute_count();
  return total;
}

}  // namespace mldcs::bcast
