#include "broadcast/skyline_cache.hpp"

#include <algorithm>

#include "obs/event_log.hpp"
#include "obs/scope.hpp"

namespace mldcs::bcast {

namespace {

constexpr auto kAllOwned = [](net::NodeId) { return true; };

}  // namespace

SkylineCache::SkylineCache(const net::DynamicDiskGraph& g,
                           sim::ThreadPool& pool, Config config)
    : g_(&g),
      pool_(&pool),
      config_(config),
      store_(g.size()),
      arc_counts_(g.size(), 0),
      dirty_(g) {
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
  dirty_.collect(*g_, delta, config_.position_tolerance, kAllOwned);
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
  const net::DynamicDiskGraph& g = *g_;
  const std::size_t n_dirty = dirty.size();
  constexpr std::size_t kBlock = detail::kRelayBlock;
  const std::size_t n_blocks = (n_dirty - 1) / kBlock + 1;

  // Phase 1 (parallel): the pool's participants claim blocks of dirty
  // relays.  Each appends its blocks' sets to its own slot's buffer and
  // records, per block, where they start; set lengths go by dirty
  // position and arc counts by relay id (disjoint indices).  Every buffer
  // here only grows, so steady-state updates allocate nothing.
  if (slot_out_.size() < pool_->size()) slot_out_.resize(pool_->size());
  if (block_begin_.size() < n_blocks) block_begin_.resize(n_blocks);
  if (lens_.size() < n_dirty) lens_.resize(n_dirty);
  for (detail::SlotSets& so : slot_out_) so.ids.clear();
  {
    const obs::Scope recompute(obs::Phase::kCacheRecompute);
    pool_->parallel_blocks(
        n_dirty, kBlock,
        [&](std::size_t slot, std::size_t lo, std::size_t hi) {
          const obs::Scope block(obs::Phase::kCacheRecompute);
          detail::SlotSets& so = slot_out_[slot];
          block_begin_[lo / kBlock] = {slot, so.ids.size()};
          for (std::size_t k = lo; k < hi; ++k) {
            const net::NodeId u = dirty[k];
            arc_counts_[u] = detail::relay_forwarding_set(g, u, so.scratch);
            const std::vector<net::NodeId>& set = so.scratch.relay_ids;
            so.ids.insert(so.ids.end(), set.begin(), set.end());
            lens_[k] = static_cast<std::uint32_t>(set.size());
          }
        });
  }

  // Phase 2 (serial): patch the slotted store block by block, so in
  // ascending relay order whichever slot ran each block: the store layout
  // is deterministic and independent of the pool's size and schedule.
  {
    const obs::Scope patch(obs::Phase::kCachePatch);
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const detail::BlockBegin at = block_begin_[b];
      const net::NodeId* ids = slot_out_[at.slot].ids.data() + at.offset;
      const std::size_t hi = std::min(n_dirty, (b + 1) * kBlock);
      for (std::size_t k = b * kBlock; k < hi; ++k) {
        store_.store(dirty[k], {ids, lens_[k]});
        ids += lens_[k];
      }
    }
  }

  if (store_.needs_compaction(config_.compaction_threshold)) {
    const obs::Scope compact(obs::Phase::kCacheCompact);
    store_.compact();
  }
}

}  // namespace mldcs::bcast
