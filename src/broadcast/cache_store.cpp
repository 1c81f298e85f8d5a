#include "broadcast/cache_store.hpp"

#include "obs/telemetry.hpp"

namespace mldcs::bcast::detail {

namespace {

/// Maintenance telemetry (docs/OBSERVABILITY.md): per-step dirty-relay
/// distribution, slot overflow / compaction churn, and the live/dead shape
/// of the slotted store — the signals that tune SlotStore's compaction
/// threshold and slot slack policy.
struct CacheTelemetry {
  obs::Counter& updates = obs::registry().counter("cache.updates");
  obs::Counter& dirty_relays = obs::registry().counter("cache.dirty_relays");
  obs::Counter& slot_overflows =
      obs::registry().counter("cache.slot_overflows");
  obs::Counter& compactions = obs::registry().counter("cache.compactions");
  obs::Histogram& dirty_per_step =
      obs::registry().histogram("cache.dirty_relays_per_step");
  obs::Gauge& store_size = obs::registry().gauge("cache.store_size");
  obs::Gauge& live_ids = obs::registry().gauge("cache.live_ids");
  obs::Gauge& dead_permille = obs::registry().gauge("cache.dead_permille");
};

CacheTelemetry& cache_telemetry() {
  static CacheTelemetry t;
  return t;
}

}  // namespace

MLDCS_HOT_PATH MLDCS_NO_LOCK void SlotStore::store(
    net::NodeId u, std::span<const net::NodeId> set) {
  Slot& s = slots_[u];
  stats_.live += set.size();
  stats_.live -= s.len;
  if (set.size() <= s.cap) {
    std::copy(set.begin(), set.end(), ids_.begin() + s.begin);
    s.len = static_cast<std::uint32_t>(set.size());
    return;
  }
  // Outgrown: abandon the old slot (dead until the next compaction) and
  // append a fresh one with new slack.  cap == 0 means the slot was never
  // assigned (initial sweep), not an overflow worth counting.
  if (s.cap != 0) ++stats_.slot_overflows;
  stats_.dead += s.cap;
  s.begin = static_cast<std::uint32_t>(ids_.size());
  s.len = static_cast<std::uint32_t>(set.size());
  s.cap = cap_for(set.size());
  ids_.resize(ids_.size() + s.cap);
  std::copy(set.begin(), set.end(), ids_.begin() + s.begin);
}

MLDCS_ALLOC_OK void SlotStore::compact() {
  ++stats_.compactions;
  std::vector<net::NodeId> packed;
  packed.reserve(stats_.live + stats_.live / 4 + 2 * slots_.size());
  for (Slot& s : slots_) {
    const std::uint32_t begin = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), ids_.begin() + s.begin,
                  ids_.begin() + s.begin + s.len);
    const std::uint32_t cap = cap_for(s.len);
    packed.resize(packed.size() + (cap - s.len));
    s.begin = begin;
    s.cap = cap;
  }
  ids_ = std::move(packed);
  stats_.dead = 0;
}

void SlotStore::corrupt_slot_for_testing(net::NodeId u) {
  Slot& s = slots_[u];
  if (s.len > 0) {
    --s.len;
    --stats_.live;
    return;
  }
  const net::NodeId bogus = u == 0 ? 1 : 0;
  store(u, {&bogus, 1});
}

void report_cache_step(std::size_t dirty, const StoreStats& before,
                       const StoreStats& after) {
  CacheTelemetry& t = cache_telemetry();
  t.updates.add();
  t.dirty_relays.add(dirty);
  t.dirty_per_step.record(dirty);
  t.slot_overflows.add(after.slot_overflows - before.slot_overflows);
  t.compactions.add(after.compactions - before.compactions);
  t.store_size.set(static_cast<std::int64_t>(after.size));
  t.live_ids.set(static_cast<std::int64_t>(after.live));
  t.dead_permille.set(
      after.size == 0
          ? 0
          : static_cast<std::int64_t>(1000 * after.dead / after.size));
}

void register_cache_telemetry() { cache_telemetry(); }

}  // namespace mldcs::bcast::detail
