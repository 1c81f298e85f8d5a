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

  // Phase 1 (parallel): compute every dirty relay's new set into per-chunk
  // buffers; arc counts go straight to the shared array (disjoint indices).
  // chunk_out_ only ever grows and carries each chunk's scratch, so
  // steady-state updates allocate nothing here.
  const std::size_t n_chunks = std::min(pool_->size(), n_dirty);
  if (chunk_out_.size() < n_chunks) chunk_out_.resize(n_chunks);
  {
    const obs::Scope recompute(obs::Phase::kCacheRecompute);
    pool_->parallel_chunks(
        n_dirty, [&](std::size_t c, std::size_t lo, std::size_t hi) {
          const obs::Scope chunk(obs::Phase::kCacheRecompute);
          ChunkOut& co = chunk_out_[c];
          co.ids.clear();
          co.lens.clear();
          co.lo = lo;
          for (std::size_t k = lo; k < hi; ++k) {
            const net::NodeId u = dirty[k];
            arc_counts_[u] = detail::relay_forwarding_set(g, u, co.scratch);
            const std::vector<net::NodeId>& set = co.scratch.relay_ids;
            co.ids.insert(co.ids.end(), set.begin(), set.end());
            co.lens.push_back(static_cast<std::uint32_t>(set.size()));
          }
        });
  }

  // Phase 2 (serial): patch the slotted store in dirty order.  Serial and
  // in ascending relay order, so the store layout is deterministic and
  // independent of the pool's thread count.
  {
    const obs::Scope patch(obs::Phase::kCachePatch);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const ChunkOut& co = chunk_out_[c];
      std::size_t off = 0;
      for (std::size_t k = 0; k < co.lens.size(); ++k) {
        const std::uint32_t len = co.lens[k];
        store_.store(dirty[co.lo + k], {co.ids.data() + off, len});
        off += len;
      }
    }
  }

  if (store_.needs_compaction(config_.compaction_threshold)) {
    const obs::Scope compact(obs::Phase::kCacheCompact);
    store_.compact();
  }
}

}  // namespace mldcs::bcast
