#pragma once

/// \file cache_store.hpp
/// The state both incremental forwarding-set caches share: the slotted set
/// store and the dirty-relay rule.
///
/// `SkylineCache` (one store, chunk-parallel recompute) and `ShardCache`
/// (one store per engine shard, serial recompute inside the shard barrier)
/// differ only in how they recompute dirty relays.  Which relays are dirty
/// and where their sets live is defined here, once.  Shard workers call
/// this code, so it is `MLDCS_NO_LOCK` throughout: it touches no telemetry
/// registry, trace span or event log.  Its accounting is plain members that
/// the caches report after their serial phase (report_cache_step).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/node.hpp"

namespace mldcs::bcast {

namespace detail {

/// Store accounting: the live/dead shape and lifetime churn counters.
struct StoreStats {
  std::size_t size = 0;  ///< blob entries (live + slack + dead)
  std::size_t live = 0;  ///< sum of slot lengths
  std::size_t dead = 0;  ///< abandoned (outgrown) slot capacity
  std::uint64_t compactions = 0;
  std::uint64_t slot_overflows = 0;

  StoreStats& operator+=(const StoreStats& o) noexcept {
    size += o.size;
    live += o.live;
    dead += o.dead;
    compactions += o.compactions;
    slot_overflows += o.slot_overflows;
    return *this;
  }
};

/// Per-relay forwarding sets in one slotted blob, indexed by global NodeId.
/// Every node owns a stable slot with some slack, so a recomputed set that
/// still fits is written in place and clean relays cost zero.  A set that
/// outgrows its slot is re-appended with fresh slack; once the dead
/// fraction passes kCompactionThreshold the blob is repacked.  The layout
/// is a pure function of the store() sequence.
class SlotStore {
 public:
  /// Dead (outgrown) fraction of the blob that triggers compaction: a
  /// repack copies every live set, so it waits until at least half of the
  /// blob is garbage, which bounds the store at about twice its live size.
  static constexpr double kCompactionThreshold = 0.5;

  explicit SlotStore(std::size_t n) : slots_(n) {}

  /// Relay `u`'s stored set (sorted ascending, as it was stored).
  [[nodiscard]] std::span<const net::NodeId> get(
      net::NodeId u) const noexcept {
    const Slot& s = slots_[u];
    return {ids_.data() + s.begin, ids_.data() + s.begin + s.len};
  }

  /// Replace relay `u`'s set: in place when it fits the slot, appended
  /// with fresh slack otherwise (member growth, amortized by the slack).
  MLDCS_HOT_PATH MLDCS_NO_LOCK void store(net::NodeId u,
                                          std::span<const net::NodeId> set);

  /// Whether the dead fraction has passed kCompactionThreshold.
  [[nodiscard]] bool needs_compaction() const noexcept {
    return stats_.dead > 0 &&
           static_cast<double>(stats_.dead) >
               kCompactionThreshold * static_cast<double>(ids_.size());
  }

  /// Repack every slot contiguously with fresh slack (drops dead space).
  MLDCS_ALLOC_OK void compact();

  /// Deliberately corrupt relay `u`'s set (drop an entry, or plant a bogus
  /// one when the true set is empty).  Exists so watchdog tests can prove
  /// injected corruption is caught; never called by maintenance.
  void corrupt_slot_for_testing(net::NodeId u);

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] StoreStats stats() const noexcept {
    StoreStats s = stats_;
    s.size = ids_.size();
    return s;
  }

 private:
  struct Slot {
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  /// Slot capacity policy: enough slack that typical set-size jitter under
  /// motion stays in place.
  [[nodiscard]] static std::uint32_t cap_for(std::size_t len) noexcept {
    return static_cast<std::uint32_t>(len + len / 4 + 2);
  }

  std::vector<Slot> slots_;
  std::vector<net::NodeId> ids_;  ///< slotted blob (slack between slots)
  StoreStats stats_;              ///< `size` unused; see stats()
};

/// The Section 5.1.1 dirty rule.  Forwarding sets depend only on fresh
/// 1-hop information, so after a step the only relays whose set can change
/// are:
///
///   dirty(w)  iff  w's 1-hop neighbor set changed (w is an endpoint of a
///                  flipped edge), or w itself moved, or a current neighbor
///                  of w did.
///
/// Maintenance is exact: `StepDelta::moved` names real movers only (the
/// graph drops hinted ids that did not move), so every mover dirties its
/// neighborhood.  An `owned` predicate restricts which relays are marked (a
/// shard marks only the relays it owns; the rule itself runs over every
/// resident, and a relay that migrates into a shard moved, so it is marked
/// there).
class DirtyRelays {
 public:
  /// A rule over relays [0, n).
  explicit DirtyRelays(std::size_t n) : in_dirty_(n, 0) {}

  /// Mark every relay `owned` accepts (the initial sweep).
  template <typename Owned>
  void mark_all(Owned owned) {
    dirty_.clear();
    for (std::size_t i = 0; i < in_dirty_.size(); ++i) {
      const net::NodeId u = static_cast<net::NodeId>(i);
      if (owned(u)) dirty_.push_back(u);
    }
  }

  /// Replace the dirty set with the owned relays `delta` (already applied
  /// to `g`) dirties.  The movers are marked first, and the walk over their
  /// neighbors and the flipped endpoints stops once every relay is marked:
  /// when every node moves, the movers alone are all of them.  A shard owns
  /// only a subset, so its walk never stops early.
  template <typename Owned>
  MLDCS_HOT_PATH MLDCS_NO_LOCK void collect(
      const net::DynamicDiskGraph& g,
      const net::DynamicDiskGraph::StepDelta& delta, Owned owned) {
    dirty_.clear();
    const std::size_t n = in_dirty_.size();
    const auto mark = [&](net::NodeId w) {
      if (!owned(w) || in_dirty_[w] != 0) return;
      in_dirty_[w] = 1;
      dirty_.push_back(w);
    };
    for (const net::NodeId u : delta.moved) mark(u);
    for (auto u = delta.moved.begin();
         dirty_.size() < n && u != delta.moved.end(); ++u) {
      for (const net::NodeId v : g.neighbors(*u)) mark(v);
    }
    for (auto w = delta.link_changed.begin();
         dirty_.size() < n && w != delta.link_changed.end(); ++w) {
      mark(*w);
    }
    if (dirty_.size() == n) {
      // Every relay is marked: the ascending list is [0, n), no sort.
      std::iota(dirty_.begin(), dirty_.end(), net::NodeId{0});
    } else {
      std::sort(dirty_.begin(), dirty_.end());
    }
    for (const net::NodeId w : dirty_) in_dirty_[w] = 0;
  }

  void clear() noexcept { dirty_.clear(); }

  /// The marked relays, ascending.  Valid until the next collect.
  [[nodiscard]] std::span<const net::NodeId> relays() const noexcept {
    return dirty_;
  }

 private:
  std::vector<net::NodeId> dirty_;
  std::vector<std::uint8_t> in_dirty_;  ///< membership mask for dirty_
};

/// Post-step `cache.*` telemetry shared by both caches (names in
/// docs/OBSERVABILITY.md): the step's dirty-relay count plus the store
/// churn between `before` and `after` and the store shape at `after`
/// (summed over shards for the sharded cache).  Caller thread only, after
/// the step's serial phase — never from a shard worker.
void report_cache_step(std::size_t dirty, const StoreStats& before,
                       const StoreStats& after);

/// Register every series report_cache_step records, so a snapshot taken
/// before the first step already carries the full `cache.*` schema.
void register_cache_telemetry();

}  // namespace detail
}  // namespace mldcs::bcast
