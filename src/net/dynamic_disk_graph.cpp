#include "net/dynamic_disk_graph.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/scope.hpp"
#include "obs/telemetry.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::net {

namespace {

/// Topology-maintenance telemetry (docs/OBSERVABILITY.md): how much of the
/// network each step actually perturbs — movers, grid re-buckets, link
/// flips — the denominators for reading SkylineCache dirty fractions.
struct GraphTelemetry {
  obs::Counter& steps = obs::registry().counter("graph.steps");
  obs::Counter& movers = obs::registry().counter("graph.movers");
  obs::Counter& rebucketed = obs::registry().counter("graph.rebucketed");
  obs::Counter& edges_added = obs::registry().counter("graph.edges_added");
  obs::Counter& edges_removed =
      obs::registry().counter("graph.edges_removed");
  obs::Histogram& movers_per_step =
      obs::registry().histogram("graph.movers_per_step");
  obs::Histogram& flips_per_step =
      obs::registry().histogram("graph.link_flips_per_step");
};

GraphTelemetry& graph_telemetry() {
  static GraphTelemetry t;
  return t;
}

bool finite_position(const Node& node) noexcept {
  return std::isfinite(node.pos.x) && std::isfinite(node.pos.y);
}

/// The cold half of the input checks: builds the message.  A NaN position
/// would reach the float-to-integer cast in GridGeometry::cell_of, and a
/// NaN radius would make linked_to asymmetric (std::min with one NaN
/// operand).
[[noreturn]] MLDCS_ALLOC_OK void throw_bad_node(const char* where,
                                                std::size_t node,
                                                const char* what) {
  throw std::invalid_argument(std::string(where) + ": node " +
                              std::to_string(node) + " " + what);
}

}  // namespace

DynamicDiskGraph::DynamicDiskGraph(std::vector<Node> nodes) {
  init(std::move(nodes));
}

DynamicDiskGraph::DynamicDiskGraph(std::vector<Node> nodes,
                                   const geom::BBox& interest)
    : region_mode_(true), interest_(interest) {
  init(std::move(nodes));
}

void DynamicDiskGraph::init(std::vector<Node> nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!finite_position(nodes[i]) || !std::isfinite(nodes[i].radius)) {
      throw_bad_node("DynamicDiskGraph", i,
                     "has a non-finite position or radius");
    }
    nodes[i].id = static_cast<NodeId>(i);
  }
  nodes_ = std::move(nodes);
  const std::size_t n = nodes_.size();
  grid_ = GridGeometry(nodes_);

  resident_.assign(n, 1);
  resident_count_ = n;
  if (region_mode_) {
    resident_count_ = 0;
    for (const Node& node : nodes_) {
      resident_[node.id] = interest_.contains(node.pos) ? 1 : 0;
      resident_count_ += resident_[node.id];
    }
  }

  // Seed from the one-shot build over the residents (every node in
  // whole-plane mode), pooled from 4096 nodes unless inside a dispatch.
  // Local id i is residents[i], a monotone map, so the lists stay sorted.
  buckets_.assign(grid_.cell_count(), {});
  bucket_of_.resize(n);
  std::vector<NodeId> residents;
  std::vector<Node> local;
  residents.reserve(resident_count_);
  local.reserve(resident_count_);
  for (const Node& node : nodes_) {
    if (resident_[node.id] == 0) continue;
    const std::size_t c = grid_.cell_of(node.pos);
    bucket_of_[node.id] = static_cast<std::uint32_t>(c);
    buckets_[c].push_back(node.id);
    residents.push_back(node.id);
    local.push_back(node);
  }
  const DiskGraph seed = DiskGraph::build(std::move(local));
  adjacency_.resize(n);
  for (std::size_t i = 0; i < residents.size(); ++i) {
    const std::span<const NodeId> nb = seed.neighbors(static_cast<NodeId>(i));
    std::vector<NodeId>& adj = adjacency_[residents[i]];
    adj.reserve(slack_for(nb.size()));
    for (const NodeId v : nb) adj.push_back(residents[v]);
  }
  edges_ = seed.edge_count();

  in_moved_.assign(n, 0);
  link_mark_.assign(n, 0);
  slots_.resize(1);
}

void DynamicDiskGraph::link_scan(NodeId u, std::vector<NodeId>& out) const {
  const Node& nu = nodes_[u];
  out.clear();
  grid_.for_each_cell(nu.pos, nu.radius, [&](std::size_t c) {
    for (const NodeId v : buckets_[c]) {
      if (v != u && nu.linked_to(nodes_[v])) out.push_back(v);
    }
  });
  std::sort(out.begin(), out.end());
}

bool DynamicDiskGraph::linked(NodeId u, NodeId v) const noexcept {
  const std::vector<NodeId>& adj = adjacency_[u];
  return std::binary_search(adj.begin(), adj.end(), v);
}

void DynamicDiskGraph::rebucket(NodeId u, geom::Vec2 new_pos) {
  const std::size_t new_cell = grid_.cell_of(new_pos);
  const std::size_t old_cell = bucket_of_[u];
  if (new_cell == old_cell) return;
  // Shard graphs step concurrently and report through shard.* counters
  // instead (and must not race to first-initialize the registry entries).
  if (!region_mode_) graph_telemetry().rebucketed.add();
  std::vector<NodeId>& old_bucket = buckets_[old_cell];
  // Bucket order is irrelevant to correctness (adjacency lists are sorted
  // after the exact-distance filter), so swap-erase keeps removal O(1).
  const auto it = std::find(old_bucket.begin(), old_bucket.end(), u);
  *it = old_bucket.back();
  old_bucket.pop_back();
  buckets_[new_cell].push_back(u);
  bucket_of_[u] = static_cast<std::uint32_t>(new_cell);
}

MLDCS_HOT_PATH const DynamicDiskGraph::StepDelta& DynamicDiskGraph::apply(
    std::span<const Node> current) {
  if (current.size() != nodes_.size()) {
    throw std::invalid_argument("DynamicDiskGraph::apply: node count changed");
  }
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (!finite_position(current[i])) {
      throw_bad_node("DynamicDiskGraph::apply", i, "has a non-finite position");
    }
  }
  delta_.moved.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (current[i].pos != nodes_[i].pos) {
      delta_.moved.push_back(static_cast<NodeId>(i));
    }
  }
  return apply_moved(current);
}

MLDCS_HOT_PATH const DynamicDiskGraph::StepDelta& DynamicDiskGraph::apply(
    std::span<const Node> current, std::span<const NodeId> moved_hint) {
  if (current.size() != nodes_.size()) {
    throw std::invalid_argument("DynamicDiskGraph::apply: node count changed");
  }
  for (const NodeId u : moved_hint) {
    if (u >= current.size()) {
      throw_bad_node("DynamicDiskGraph::apply", u, "is out of range");
    }
    if (!finite_position(current[u])) {
      throw_bad_node("DynamicDiskGraph::apply", u, "has a non-finite position");
    }
  }
  // Drop hinted residents that did not move: the caches' dirty rule marks
  // every mover.  A non-resident's stored position may be stale, so
  // classify_movers decides for it.
  delta_.moved.clear();
  for (const NodeId u : moved_hint) {
    if (resident_[u] == 0 || current[u].pos != nodes_[u].pos) {
      delta_.moved.push_back(u);
    }
  }
  std::sort(delta_.moved.begin(), delta_.moved.end());
  delta_.moved.erase(std::unique(delta_.moved.begin(), delta_.moved.end()),
                     delta_.moved.end());
  return apply_moved(current);
}

MLDCS_HOT_PATH void DynamicDiskGraph::classify_movers(
    std::span<const Node> current) {
  // Rewrite delta_.moved in place, keeping only movers that touch the
  // interest rectangle and recording each survivor's kind in in_moved_
  // (1 = move or insert, 2 = evict).  Order — hence sortedness — is kept.
  std::size_t w = 0;
  for (const NodeId u : delta_.moved) {
    const bool was = resident_[u] != 0;
    const bool now = interest_.contains(current[u].pos);
    if (!was && !now) continue;  // passed by outside: not our node
    in_moved_[u] = (was && !now) ? 2 : 1;
    delta_.moved[w++] = u;
  }
  delta_.moved.resize(w);
}

MLDCS_HOT_PATH void DynamicDiskGraph::diff_movers(SlotScratch& cs,
                                                  std::size_t lo,
                                                  std::size_t hi) {
  // Another participant may mark the same endpoint concurrently; both
  // store the same value, and an id both saw unmarked is deduplicated in
  // phase 3.
  const auto mark = [this, &cs](NodeId v) {
    const std::atomic_ref<std::uint8_t> flag(link_mark_[v]);
    if (flag.load(std::memory_order_relaxed) != 0) return;
    flag.store(1, std::memory_order_relaxed);
    cs.marked.push_back(v);
  };
  for (std::size_t m = lo; m < hi; ++m) {
    const NodeId u = delta_.moved[m];
    // An evicted node's new list is empty by fiat — its bucket slot is
    // already gone, so every old link shows up as removed.
    cs.adj.clear();
    if (in_moved_[u] != 2) link_scan(u, cs.adj);

    // Sorted two-pointer diff of old (adjacency_[u]) vs new (cs.adj).  Both
    // endpoints of a flip between movers see it (linked_to is symmetric
    // and both sides see post-move positions), so it is counted from the
    // lower one; an unmoved endpoint gets a queued patch instead.
    std::vector<NodeId>& old_adj = adjacency_[u];
    const auto record = [&](NodeId v, bool added) {
      if (in_moved_[v] != 0 && v < u) return;  // counted from min(u, v)
      added ? ++cs.added : ++cs.removed;
      mark(u);
      mark(v);
      if (in_moved_[v] == 0) cs.patches.push_back({v, u, added});
    };
    std::size_t i = 0;
    std::size_t k = 0;
    while (i < old_adj.size() || k < cs.adj.size()) {
      if (k == cs.adj.size() ||
          (i < old_adj.size() && old_adj[i] < cs.adj[k])) {
        record(old_adj[i], /*added=*/false);
        ++i;
      } else if (i == old_adj.size() || cs.adj[k] < old_adj[i]) {
        record(cs.adj[k], /*added=*/true);
        ++k;
      } else {
        ++i;
        ++k;
      }
    }
    // Regrow with slack: `assign` alone would reallocate to the exact size.
    if (old_adj.capacity() < cs.adj.size()) {
      old_adj.clear();
      old_adj.reserve(slack_for(cs.adj.size()));
    }
    old_adj.assign(cs.adj.begin(), cs.adj.end());
  }
}

MLDCS_HOT_PATH const DynamicDiskGraph::StepDelta&
DynamicDiskGraph::apply_moved(
    std::span<const Node> current) {
  const obs::Scope scope(obs::Phase::kGraphApply);
  delta_.link_changed.clear();
  delta_.edges_added = 0;
  delta_.edges_removed = 0;

  if (region_mode_) classify_movers(current);

  // Phase 1: commit every moved position and re-bucket, so phase 2's grid
  // queries and symmetric linked_to tests all see the new geometry.  In
  // region mode this is also where residency flips: an entering node gets a
  // fresh bucket slot, a leaving node loses its slot (so no later grid
  // query can see it) and keeps in_moved_ == 2 for phase 2.
  for (const NodeId u : delta_.moved) {
    assert(current[u].radius == nodes_[u].radius &&
           "apply: radii are fixed under mobility");
    if (in_moved_[u] == 2) {
      std::vector<NodeId>& bucket = buckets_[bucket_of_[u]];
      const auto it = std::find(bucket.begin(), bucket.end(), u);
      *it = bucket.back();
      bucket.pop_back();
      resident_[u] = 0;
      --resident_count_;
    } else {
      in_moved_[u] = 1;
      if (resident_[u] == 0) {
        const std::size_t c = grid_.cell_of(current[u].pos);
        bucket_of_[u] = static_cast<std::uint32_t>(c);
        buckets_[c].push_back(u);
        resident_[u] = 1;
        ++resident_count_;
      } else {
        rebucket(u, current[u].pos);
      }
    }
    nodes_[u].pos = current[u].pos;
  }

  // Phase 2: the per-mover diff, inline or in self-scheduled blocks of
  // movers on the pool.  Whole-plane only: a region graph is a shard
  // already stepped on a pool worker inside the engine's barrier.
  const std::size_t movers = delta_.moved.size();
  sim::ThreadPool* const pool =
      !region_mode_ && movers >= kParallelApplyMovers ? sim::fan_out_pool()
                                                      : nullptr;
  if (pool != nullptr && slots_.size() < pool->size()) {
    slots_.resize(pool->size());
  }
  for (SlotScratch& cs : slots_) {
    cs.marked.clear();
    cs.patches.clear();
    cs.added = 0;
    cs.removed = 0;
  }
  if (pool != nullptr) {
    pool->parallel_blocks(
        movers, kParallelApplyBlock,
        [this](std::size_t slot, std::size_t lo, std::size_t hi) {
          const obs::Scope block(obs::Phase::kGraphApply);
          diff_movers(slots_[slot], lo, hi);
        });
  } else {
    diff_movers(slots_[0], 0, movers);
  }

  // Phase 3: which slot queued which edit depends on the schedule, but the
  // result does not.  Every edit inserts or erases a mover id in the sorted
  // list of an unmoved endpoint, and the edits to one list name distinct
  // movers (each mover diffs its own list once), so they commute; the
  // counts are sums and link_changed is sorted below.
  for (const SlotScratch& cs : slots_) {
    for (const Patch& p : cs.patches) {
      std::vector<NodeId>& adj = adjacency_[p.v];
      const auto pos = std::lower_bound(adj.begin(), adj.end(), p.u);
      p.added ? static_cast<void>(adj.insert(pos, p.u))
              : static_cast<void>(adj.erase(pos));
    }
    delta_.edges_added += cs.added;
    delta_.edges_removed += cs.removed;
    delta_.link_changed.insert(delta_.link_changed.end(), cs.marked.begin(),
                               cs.marked.end());
  }
  edges_ += delta_.edges_added;
  edges_ -= delta_.edges_removed;

  for (const NodeId u : delta_.moved) in_moved_[u] = 0;
  // At most one entry per node, plus the rare id two participants both
  // saw unmarked.
  std::sort(delta_.link_changed.begin(), delta_.link_changed.end());
  delta_.link_changed.erase(
      std::unique(delta_.link_changed.begin(), delta_.link_changed.end()),
      delta_.link_changed.end());
  for (const NodeId v : delta_.link_changed) link_mark_[v] = 0;

  ++steps_;
  if (region_mode_) {
    // Shard steps run concurrently: no global counters, and the engine
    // emits one kShardExchange event for the whole barrier instead of a
    // kStep per shard.
    delta_.event_id = obs::kNoEvent;
    return delta_;
  }

  GraphTelemetry& t = graph_telemetry();
  t.steps.add();
  t.movers.add(delta_.moved.size());
  t.edges_added.add(delta_.edges_added);
  t.edges_removed.add(delta_.edges_removed);
  t.movers_per_step.record(delta_.moved.size());
  t.flips_per_step.record(delta_.edges_added + delta_.edges_removed);

  delta_.event_id = obs::emit_event(
      obs::EventType::kStep, static_cast<std::uint32_t>(delta_.moved.size()),
      static_cast<std::uint32_t>(delta_.link_changed.size()), obs::kNoEvent,
      steps_);
  return delta_;
}

DiskGraph DynamicDiskGraph::to_disk_graph() const {
  if (region_mode_) {
    throw std::logic_error(
        "DynamicDiskGraph::to_disk_graph: region graphs hold stale "
        "positions for non-resident slots; snapshot the whole-plane graph");
  }
  return DiskGraph::from_adjacency(
      std::vector<Node>(nodes_.begin(), nodes_.end()), adjacency_);
}

}  // namespace mldcs::net
