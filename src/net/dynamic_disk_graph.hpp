#pragma once

/// \file dynamic_disk_graph.hpp
/// Incrementally maintained disk graph for mobile networks.
///
/// `DiskGraph::build` rebuilds the spatial grid and the whole CSR adjacency
/// from scratch — the right tool for one-shot deployments, but an O(network)
/// cost per beacon period under mobility even when only a handful of nodes
/// moved.  `DynamicDiskGraph` keeps the same bidirectional-link topology
/// (Section 3.1: u ~ v iff ||u - v|| <= min(r_u, r_v)) in *mutable* form:
///
///  - one mutable bucket per cell of the `GridGeometry` (spatial_grid.hpp)
///    fitted to the initial deployment, holding a copy of each resident's
///    position and radius beside its id, rewritten for every mover and
///    moved between buckets only when a node's cell changed,
///  - per-node sorted adjacency lists patched by edge diffs: each moved
///    node's neighbor list is recomputed from the grid, and only the
///    added/removed edges touch the (unmoved) other endpoints.
///
/// The two graph types share one grid geometry, one cell entry
/// (`GridEntry`), one branch-free link walk over a cell's entries
/// (`append_links`) and one ordering of a list (`sort_distinct_ids`, all
/// in spatial_grid.hpp).  The constructor seeds every resident's list with
/// the walk each step uses, in `DiskGraph::build`'s two passes (count,
/// then fill the lists it sized), in blocks on `sim::default_pool()` from
/// `DiskGraph::kParallelBuildNodes` residents (inline inside a dispatch).
///
/// Every `apply` returns a `StepDelta` naming the moved nodes and the
/// endpoints of flipped edges — exactly the information a cached-skyline
/// layer (bcast::SkylineCache) needs to recompute only dirty relays.  The
/// maintained adjacency is always identical to what `DiskGraph::build`
/// would produce on the current positions (differential-tested in
/// tests/net/dynamic_disk_graph_test.cpp and, at pool sizes 1, 2, 3 and the
/// host's, tests/net/parallel_apply_test.cpp).
///
/// **Phases of one apply.**  (1) Serial: commit each mover's position and
/// its bucket entry.  (2) The one per-mover body: mark the mover's old
/// list in the participant's byte mask, walk the contiguous bucket entries
/// of the cells its range touches through the exact link filter, and split
/// the walk's results by the mask into kept, added and removed ids (no
/// comparison sort of the whole list: only the added ids are ordered, then
/// merged with the kept ones into the new list).  The body reads only
/// post-move positions, the grid and the movers' own lists, so it runs over
/// blocks of the mover list — inline, or in blocks claimed by the
/// participants of `sim::default_pool()` (ThreadPool::parallel_blocks).  A
/// flip between two movers shows up in both of their diffs; it is counted
/// from the lower endpoint, and each mover marks only itself as a flipped
/// endpoint.  Edits to *unmoved* endpoints' lists are queued in the
/// participant's slot; it keeps no record per flip.  (3) Serial: the queued
/// edits are patched in, slot by slot, and their unmoved endpoints marked.
/// Which slot queued an edit depends on the schedule, but the result does
/// not: every edit inserts or erases a mover id in an unmoved endpoint's
/// sorted list, and the edits to one list name distinct movers, so they
/// commute.  `link_changed` merges the marked movers (already ascending)
/// with the patched endpoints, sorted — none when every node moves.
///
/// Phase 2 runs in blocks on the pool when the graph is whole-plane and
/// the step has at least `kParallelApplyMovers` movers, and as one block
/// otherwise; `sim::ThreadPool::participants` runs it inline inside a
/// dispatch too.  Region graphs (the shards of ShardedEngine, already
/// stepped one per worker inside the engine's barrier) always pass one
/// block.  The output — adjacency, `StepDelta`,
/// kStep event, `graph.*` counters — is the same at every pool size and
/// under every schedule.
///
/// **Region mode** (the shard substrate of net::ShardedEngine): constructed
/// with an interest rectangle, the graph keeps every node *slot* (ids stay
/// global) but only nodes inside the rectangle are *resident* — bucketed in
/// the grid with maintained adjacency.  `apply` then classifies each hinted
/// mover by (was resident, new position in region): stay → ordinary move,
/// enter → insertion (adjacency grown from empty via the same edge diff),
/// leave → eviction (adjacency diffed to empty, bucket slot dropped), and
/// movers that never touch the region are ignored.  Non-resident nodes have
/// empty neighbor lists and may hold stale positions; residents' adjacency
/// — restricted to resident endpoints — is exact.  When the interest
/// rectangle is a tile dilated by the deployment's maximum radius, every
/// node inside the tile has its complete 1-hop set resident (a link spans
/// at most max radius), which is the halo-correctness guarantee the
/// sharded skyline cache is built on.

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "geometry/bbox.hpp"
#include "net/disk_graph.hpp"
#include "net/node.hpp"
#include "net/spatial_grid.hpp"
#include "obs/event_log.hpp"

namespace mldcs::net {

/// Mutable disk graph: positions may change step to step; radii and the
/// node set are fixed at construction (the mobility model of Section 5.1.1
/// moves nodes but never re-provisions antennas).
class DynamicDiskGraph {
 public:
  /// What changed in one `apply` call.
  struct StepDelta {
    /// Nodes whose position changed (ascending).
    std::vector<NodeId> moved;
    /// Endpoints of every added or removed edge (ascending, unique).
    std::vector<NodeId> link_changed;
    std::size_t edges_added = 0;
    std::size_t edges_removed = 0;
    /// Flight-recorder id of this step's kStep event (obs::kNoEvent when
    /// event collection is disarmed) — the causal parent for downstream
    /// kCacheUpdate events.
    std::uint64_t event_id = obs::kNoEvent;

    [[nodiscard]] bool empty() const noexcept {
      return moved.empty() && link_changed.empty();
    }
  };

  /// Whole-plane steps with at least this many movers run the per-mover
  /// diff on `sim::default_pool()` (see the file comment).  Measured on the
  /// ~1000-node paper deployment, 4-core x86-64, Release, random movers
  /// displaced by up to 0.3: at 256 movers pooled and inline steps tie
  /// (0.25 ms each, medians of 350 steps), at 512 the pool wins (0.30-0.33
  /// against 0.41 ms).
  static constexpr std::size_t kParallelApplyMovers = 256;

  /// Movers per block of a pooled phase 2.  A mover's diff costs about 1 us
  /// of CPU (a serial 999-mover high-speed step takes ~1.05 ms), about a
  /// ninth of a relay's skyline; blocks of 16, 32 and 64 movers could not
  /// be told apart (three alternating runs each, 4-core x86-64), so blocks
  /// stay small for the balance.
  static constexpr std::size_t kParallelApplyBlock = 16;

  /// Build the initial topology (the same lists as `DiskGraph::build`).  As
  /// there, node ids are reassigned to indices, and a non-finite position
  /// or radius throws std::invalid_argument before anything is built.
  explicit DynamicDiskGraph(std::vector<Node> nodes);

  /// Region mode: keep a slot for every node (ids are still indices into the
  /// full deployment) but bucket and link only the nodes inside `interest`.
  /// The grid is fitted to the full deployment, so shard grids agree with
  /// the global one.  See the file comment.
  DynamicDiskGraph(std::vector<Node> nodes, const geom::BBox& interest);

  [[nodiscard]] bool region_mode() const noexcept { return region_mode_; }

  /// True if `id` is currently inside this graph's interest region (always
  /// true in whole-plane mode).  Non-resident nodes have empty neighbor
  /// lists and possibly stale positions.
  [[nodiscard]] bool resident(NodeId id) const noexcept {
    return resident_[id] != 0;
  }
  [[nodiscard]] std::size_t resident_count() const noexcept {
    return resident_count_;
  }

  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const noexcept {
    return nodes_[id];
  }

  /// 1-hop neighbors of `id`, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const noexcept {
    return adjacency_[id];
  }

  [[nodiscard]] std::size_t degree(NodeId id) const noexcept {
    return adjacency_[id].size();
  }

  /// True if u and v are adjacent (binary search; u != v assumed).
  [[nodiscard]] bool linked(NodeId u, NodeId v) const noexcept;

  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  /// Mobility steps applied so far (the `value` of emitted kStep events).
  [[nodiscard]] std::uint64_t step_count() const noexcept { return steps_; }

  [[nodiscard]] double average_degree() const noexcept {
    return nodes_.empty() ? 0.0
                          : 2.0 * static_cast<double>(edges_) /
                                static_cast<double>(nodes_.size());
  }

  /// Move nodes to the positions in `current` (same size and order as
  /// `nodes()`; radii must be unchanged).  Nodes whose position differs are
  /// re-bucketed if their grid cell changed, their adjacency lists are
  /// recomputed from the grid (on `sim::default_pool()` for large
  /// whole-plane steps), and the resulting edge diffs are patched into the
  /// unmoved endpoints' lists.  Returns the delta of this step;
  /// the reference stays valid until the next `apply`.  A non-finite
  /// position or a changed radius throws std::invalid_argument before any
  /// state changes.
  ///
  /// In region mode each mover is first classified against the interest
  /// rectangle (move / insert / evict / ignore); `delta.moved` then lists
  /// only the movers that touched the region, and evicted nodes appear in
  /// `moved` with their links torn down in `link_changed`.  Region-mode
  /// steps emit no kStep event and touch no global telemetry — many shard
  /// graphs step concurrently, and the sharded engine reports for all of
  /// them (`delta.event_id` stays obs::kNoEvent).
  MLDCS_HOT_PATH const StepDelta& apply(std::span<const Node> current);

  /// Same, with the moved set supplied by the caller (e.g.
  /// `MobileNetwork::moved_last_step()`), skipping the O(n) change scan.
  /// Ids not in `moved_hint` must be unchanged in `current`; hinted ids
  /// that did not move are dropped, so `delta.moved` names real movers
  /// only (region mode: hints whose old and new positions are both outside
  /// the region are ignored too).  A hinted id >= size(), or a hinted node
  /// with a non-finite position or a changed radius, throws
  /// std::invalid_argument before any state changes.
  MLDCS_HOT_PATH const StepDelta& apply(
      std::span<const Node> current, std::span<const NodeId> moved_hint);

  /// The most recent `apply`'s delta (an empty delta before the first
  /// apply).  Same lifetime rule as the `apply` return value.
  [[nodiscard]] const StepDelta& last_delta() const noexcept { return delta_; }

 private:
  /// An edit to an unmoved endpoint's list, queued by phase 2 and applied
  /// in phase 3: insert (added) or erase mover `u` in `v`'s list.
  struct Patch {
    NodeId v;
    NodeId u;
    bool added;
  };

  /// One phase-2 participant's scratch and queued results, indexed by
  /// parallel_blocks slot; grows to the participants of a pooled seed or
  /// step, then is reused every step.  The seed walks into `found` too.
  struct SlotScratch {
    /// One byte per node, zero between movers: the current mover's old
    /// list and walk results (see diff_movers).
    std::vector<std::uint8_t> mark;
    // The current mover's walk results, added and removed ids.  Sized up
    // on demand and used through counts, never shrunk.
    std::vector<NodeId> found;
    std::vector<NodeId> added;
    std::vector<NodeId> removed;
    std::vector<Patch> patches;  ///< in the slot's claim order
    std::size_t added_edges = 0;
    std::size_t removed_edges = 0;
  };

  void init(std::vector<Node> nodes);
  /// Grow slots_ to `count` participants, each with its byte mask.
  void grow_slots(std::size_t count);
  MLDCS_HOT_PATH const StepDelta& apply_moved(std::span<const Node> current);
  MLDCS_HOT_PATH void classify_movers(std::span<const Node> current);
  MLDCS_HOT_PATH void place_movers(std::span<const Node> current);
  MLDCS_HOT_PATH void diff_movers(SlotScratch& cs, std::size_t lo,
                                  std::size_t hi);
  MLDCS_HOT_PATH void patch_unmoved();
  /// u's exact neighbors at its current position, in walk order, into
  /// `found[0, k)`; returns k.
  std::size_t link_scan(NodeId u, std::vector<NodeId>& found) const;
  /// Add `u` (position and radius from nodes_) to the bucket of `cell`.
  void insert_resident(NodeId u, std::size_t cell);
  /// Drop `u` from the bucket it is in.
  void erase_resident(NodeId u);

  /// Capacity of a list of `size` ids when seeded or regrown (the
  /// SlotStore::cap_for rule): under motion some degree passes its old
  /// maximum almost every step.
  [[nodiscard]] static std::size_t slack_for(std::size_t size) noexcept {
    return size + size / 4 + 2;
  }

  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> adjacency_;  ///< sorted per node
  std::size_t edges_ = 0;
  std::uint64_t steps_ = 0;

  // Region mode (see file comment).  resident_ is all-ones in whole-plane
  // mode so `resident()` needs no branch.
  bool region_mode_ = false;
  geom::BBox interest_{};
  std::vector<std::uint8_t> resident_;
  std::size_t resident_count_ = 0;

  // Bucketed grid: one mutable bucket per cell of the geometry fitted to
  // the initial deployment (later positions clamp into the border cells).
  GridGeometry grid_;
  // A bucket holds one GridEntry per resident; phase 1 rewrites the entry
  // of every mover, whether or not its cell changed.
  std::vector<std::vector<GridEntry>> buckets_;
  std::vector<std::uint32_t> bucket_of_;  ///< node -> bucket index
  std::vector<std::uint32_t> entry_of_;   ///< node -> index in its bucket

  // Step scratch, reused across apply() calls.
  StepDelta delta_;
  std::vector<SlotScratch> slots_;
  /// Membership mask for delta_.moved: 0 = unmoved, 1 = moved (or inserted
  /// into the region), 2 = evicted from the region (new adjacency forced
  /// empty in phase 2).
  std::vector<std::uint8_t> in_moved_;
  /// 1 = endpoint of a flipped edge this step.  In phase 2 each mover sets
  /// only its own byte, when its own list changed; phase 3 sets those of
  /// the unmoved endpoints it patches, and clears every mark as it gathers
  /// link_changed.
  std::vector<std::uint8_t> link_mark_;
  /// Phase 3 scratch: the unmoved endpoints patched this step, each once.
  std::vector<NodeId> patched_;
};

}  // namespace mldcs::net
