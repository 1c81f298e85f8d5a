#pragma once

/// \file sharded_engine.hpp
/// Spatially sharded topology maintenance: an R×C tile grid of region-mode
/// `DynamicDiskGraph`s stepped in parallel with halo exchange.
///
/// The paper's local-disk-cover premise (Section 3: a relay's MLDCS depends
/// only on its 1-hop disk set) makes whole-network maintenance spatially
/// decomposable: partition the deployment rectangle into R×C tiles, give
/// each tile's shard a region-mode graph whose interest rectangle is the
/// tile dilated by the deployment's maximum radius, and every node *owned*
/// by a tile (positioned inside it) has its complete 1-hop neighborhood
/// resident in that shard — a link spans at most max radius.  The dilation
/// band is the **halo**: nodes within max radius of a tile border are
/// resident in more than one shard, and they are the only state ever
/// exchanged between shards.
///
/// Per mobility step (the GVT-style barrier of the ROSS exemplar — every
/// shard advances to the same virtual time before anyone proceeds):
///
///  1. **Ownership commit (serial):** each mover's owner tile is recomputed
///     from its new position; border crossings are recorded as migrations.
///     Serial so the parallel phase reads a stable owner map.
///  2. **Parallel shard step (one pool barrier):** each shard routes the
///     movers whose old or new position falls in its region (its halo
///     update), applies them to its region graph — insertions, evictions,
///     and moves all ride the same `StepDelta` edge-diff machinery — and
///     then runs the caller-installed per-shard hook (the sharded skyline
///     cache recomputes its dirty owned relays here).  No shard takes a
///     lock or touches another shard's state; the pool latch is the only
///     synchronization.
///  3. **Position commit + report (serial):** global committed positions
///     advance, per-shard halo/exchange/barrier-wait telemetry is recorded,
///     and one kShardExchange event is emitted (the step-level causal
///     parent — region graphs do not emit per-shard kStep events).
///
/// Owned-relay adjacency in a shard is identical (same sorted global
/// NodeIds) to the whole-plane graph's, which is what makes the sharded
/// skyline cache bit-identical to the single-engine one (see
/// broadcast/sharded_cache.hpp and tests/net/sharded_engine_test.cpp).
///
/// Contract: every position the run ever produces must lie inside the
/// deployment rectangle (mobility models here confine nodes to the square).
/// A node outside the rectangle could drift beyond its owner tile's
/// dilation band and lose sight of its neighborhood, so the constructor
/// rejects initial positions outside it and step() rejects such a mover
/// (NaN included) with std::invalid_argument before changing any state.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "geometry/bbox.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/node.hpp"
#include "obs/event_log.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::net {

/// Tiled fleet of region-mode DynamicDiskGraphs stepped in parallel.
class ShardedEngine {
 public:
  struct Config {
    /// Target shard count; factored into an R×C grid that keeps tiles as
    /// close to square as the deployment aspect allows (0 treated as 1).
    std::size_t shards = 1;
    /// Deployment rectangle that bounds every position for the whole run.
    /// Empty (the default) means the bounding box of the initial positions
    /// — only safe for static or in-place workloads; mobility callers pass
    /// the full deployment square.
    geom::BBox deployment{};
  };

  /// Build the tile grid and every shard's region graph (shards are
  /// constructed in parallel on `pool`, which is retained for every step).
  /// Node ids are reassigned to indices, as everywhere else.  Construction
  /// also registers the engine as the process-wide shard-stats provider
  /// (obs/shard_stats.hpp) and eagerly registers every `shard.*` metric,
  /// so a snapshot taken before the first step carries all shard series.
  ShardedEngine(std::vector<Node> nodes, sim::ThreadPool& pool, Config config);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// The pool every step's barrier runs on (shared with composing layers
  /// so initial sweeps reuse the same workers).
  [[nodiscard]] sim::ThreadPool& pool() const noexcept { return *pool_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Committed global positions (advanced at the end of each step).
  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }

  /// Shard `s`'s region graph (region = tile dilated by max radius).
  [[nodiscard]] const DynamicDiskGraph& shard_graph(std::size_t s) const {
    return shards_[s]->graph;
  }

  /// Shard `s`'s StepDelta from the most recent step (empty delta before
  /// the first step).
  [[nodiscard]] const DynamicDiskGraph::StepDelta& shard_delta(
      std::size_t s) const {
    return shards_[s]->graph.last_delta();
  }

  /// Owner shard of node `u` right now (the tile its committed position
  /// lies in).
  [[nodiscard]] std::uint32_t owner_of(NodeId u) const noexcept {
    return owner_of_[u];
  }
  /// The whole owner map; the span stays valid for the engine's lifetime
  /// and is rewritten during each step's serial ownership phase.
  [[nodiscard]] std::span<const std::uint32_t> owner_map() const noexcept {
    return owner_of_;
  }

  /// Nodes owned by shard `s` right now.
  [[nodiscard]] std::size_t owned_count(std::size_t s) const noexcept {
    return owned_count_[s];
  }
  /// Halo residents of shard `s`: resident but owned elsewhere.
  [[nodiscard]] std::size_t halo_count(std::size_t s) const noexcept {
    return shards_[s]->graph.resident_count() - owned_count_[s];
  }
  /// Total halo residency across shards over the node count — the fraction
  /// of the deployment that is replicated state (0 for one shard).
  [[nodiscard]] double halo_fraction() const noexcept;

  /// Nodes whose owner tile changed in the most recent step (ascending —
  /// routed movers preserve the hint order).
  [[nodiscard]] std::span<const NodeId> migrated_last_step() const noexcept {
    return migrated_;
  }

  [[nodiscard]] std::uint64_t step_count() const noexcept { return steps_; }
  [[nodiscard]] std::uint64_t migration_count() const noexcept {
    return migrations_;
  }

  /// Flight-recorder id of the most recent step's kShardExchange event
  /// (obs::kNoEvent when collection is disarmed) — the causal parent for
  /// downstream cache updates.
  [[nodiscard]] std::uint64_t last_event() const noexcept {
    return last_event_;
  }

  /// Install a hook run once per shard per step, on the shard's worker
  /// thread, after that shard's graph applied its routed movers.  This is
  /// how the sharded skyline cache fuses its dirty-relay recompute into the
  /// same barrier; the hook must only touch shard-`s` state (it runs with
  /// zero cross-shard synchronization).
  void set_shard_hook(std::function<void(std::size_t)> hook) {
    hook_ = std::move(hook);
  }

  /// Apply one mobility step: `current` is the full node array (same size
  /// and order as `nodes()`, radii unchanged), `moved_hint` the ascending
  /// ids of nodes whose position changed (e.g.
  /// `MobileNetwork::moved_last_step()`).  Steady-state steps are
  /// allocation-free outside member-scratch growth.  A hinted id outside
  /// [0, size()), a mover outside the deployment rectangle or a mover whose
  /// radius changed throws std::invalid_argument before any state changes.
  MLDCS_HOT_PATH void step(std::span<const Node> current,
                           std::span<const NodeId> moved_hint);

  /// Publish shard `s`'s dirty-relay count into its load slot (one relaxed
  /// store).  Called by the sharded cache's hook on shard `s`'s worker
  /// thread — each shard writes only its own slot, so the barrier phase
  /// stays free of cross-shard synchronization.
  MLDCS_HOT_PATH MLDCS_NO_LOCK void publish_shard_dirty(
      std::size_t s, std::uint64_t dirty) noexcept {
    load_[s].dirty.store(dirty, std::memory_order_relaxed);
  }

  /// Owner tile of a position (clamped to the grid).
  [[nodiscard]] std::uint32_t tile_of(geom::Vec2 p) const noexcept;

 private:
  struct Shard {
    DynamicDiskGraph graph;
    geom::BBox region;
    std::vector<NodeId> incoming;  ///< routed movers, retained across steps
    std::uint64_t step_ns = 0;     ///< parallel-phase duration, this step

    Shard(std::vector<Node> nodes, const geom::BBox& r)
        : graph(std::move(nodes), r), region(r) {}
  };

  std::vector<Node> nodes_;  ///< committed global positions
  sim::ThreadPool* pool_;
  geom::BBox deployment_{};
  double max_radius_ = 0.0;
  std::size_t rows_ = 1;
  std::size_t cols_ = 1;
  double tile_w_ = 1.0;
  double tile_h_ = 1.0;

  /// Per-shard load snapshot published for observers (obs/shard_stats.hpp
  /// provider, installed in the constructor).  Each slot is written by one
  /// thread at a time — phase 3's serial report loop, except `dirty`,
  /// stored by the shard's own hook thread — and read from foreign
  /// introspection/blackbox threads, so every field is a relaxed atomic
  /// and slots are cache-line separated to keep the stores from sharing.
  struct alignas(64) ShardLoad {
    std::atomic<std::uint64_t> owned{0};
    std::atomic<std::uint64_t> halo{0};
    std::atomic<std::uint64_t> incoming{0};
    std::atomic<std::uint64_t> dirty{0};
    std::atomic<std::uint64_t> step_ns{0};
    std::atomic<std::uint64_t> barrier_wait_ns{0};
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint32_t> owner_of_;
  std::vector<std::size_t> owned_count_;
  std::vector<NodeId> migrated_;
  std::unique_ptr<ShardLoad[]> load_;
  std::atomic<std::uint64_t> published_step_{0};

  std::function<void(std::size_t)> hook_;

  std::uint64_t steps_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t last_event_ = obs::kNoEvent;
};

}  // namespace mldcs::net
