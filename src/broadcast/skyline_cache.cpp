#include "broadcast/skyline_cache.hpp"

#include <cstddef>
#include <span>

#include "obs/event_log.hpp"
#include "obs/scope.hpp"

namespace mldcs::bcast {

namespace {

constexpr auto kAllOwned = [](net::NodeId) { return true; };

}  // namespace

SkylineCache::SkylineCache(const net::DynamicDiskGraph& g,
                           sim::ThreadPool& pool)
    : g_(&g),
      pool_(&pool),
      store_(g.size()),
      arc_counts_(g.size(), 0),
      dirty_(g.size()) {
  full_sweep();
}

void SkylineCache::full_sweep() {
  // Reuse the incremental machinery: everything is dirty once.
  dirty_.mark_all(kAllOwned);
  recompute_dirty();
  dirty_.clear();
}

MLDCS_HOT_PATH void SkylineCache::update(
    const net::DynamicDiskGraph::StepDelta& delta) {
  const obs::Scope scope(obs::Phase::kCacheUpdate);
  dirty_.collect(*g_, delta, kAllOwned);
  const std::size_t n_dirty = dirty_.relays().size();
  recomputes_ += n_dirty;
  const detail::StoreStats before = store_.stats();
  recompute_dirty();

  ++updates_;
  last_update_event_ = obs::emit_event(
      obs::EventType::kCacheUpdate, static_cast<std::uint32_t>(n_dirty),
      obs::kNoNode, delta.event_id, updates_);
  detail::report_cache_step(n_dirty, before, store_.stats());
}

void SkylineCache::recompute_dirty() {
  const std::span<const net::NodeId> dirty = dirty_.relays();
  if (dirty.empty()) return;
  {
    const obs::Scope recompute(obs::Phase::kCacheRecompute);
    batch_.compute(*g_, dirty, pool_, obs::Phase::kCacheRecompute);
  }

  // Serial patch in dirty order, i.e. ascending relay order: the store
  // layout is independent of the pool's size and schedule.
  {
    const obs::Scope patch(obs::Phase::kCachePatch);
    for (std::size_t k = 0; k < dirty.size(); ++k) {
      arc_counts_[dirty[k]] = batch_.arc_count(k);
      store_.store(dirty[k], batch_.set(k));
    }
  }

  if (store_.needs_compaction()) {
    const obs::Scope compact(obs::Phase::kCacheCompact);
    store_.compact();
  }
}

}  // namespace mldcs::bcast
