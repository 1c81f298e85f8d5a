#include "net/dynamic_disk_graph.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/scope.hpp"
#include "obs/telemetry.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::net {

namespace {

/// Most added ids per mover that diff_movers orders by rank counting (64
/// squared compares, a few hundred cycles vectorized); more take std::sort.
constexpr std::size_t kRankSortMax = 64;

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
  // whole-plane mode), pooled from DiskGraph::kParallelBuildNodes nodes
  // unless inside a dispatch.  Local id i is residents[i], a monotone map,
  // so the lists stay sorted.
  std::vector<NodeId> residents;
  std::vector<Node> local;
  residents.reserve(resident_count_);
  local.reserve(resident_count_);
  bucket_of_.resize(n);
  entry_of_.resize(n);
  std::vector<std::uint32_t> occupancy(grid_.cell_count(), 0);
  for (const Node& node : nodes_) {
    if (resident_[node.id] == 0) continue;
    bucket_of_[node.id] = static_cast<std::uint32_t>(grid_.cell_of(node.pos));
    ++occupancy[bucket_of_[node.id]];
    residents.push_back(node.id);
    local.push_back(node);
  }
  // Buckets get the lists' slack up front, not push-back doubling.
  buckets_.assign(grid_.cell_count(), {});
  for (std::size_t c = 0; c < buckets_.size(); ++c) {
    if (occupancy[c] != 0) buckets_[c].reserve(slack_for(occupancy[c]));
  }
  for (const NodeId u : residents) insert_resident(u, bucket_of_[u]);
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
  slots_[0].mark.assign(n, 0);
}

void DynamicDiskGraph::insert_resident(NodeId u, std::size_t cell) {
  std::vector<Resident>& bucket = buckets_[cell];
  const Node& node = nodes_[u];
  bucket_of_[u] = static_cast<std::uint32_t>(cell);
  entry_of_[u] = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back({node.pos.x, node.pos.y, node.radius, u});
}

void DynamicDiskGraph::erase_resident(NodeId u) {
  // Bucket order is irrelevant (the walk's output is ordered per mover),
  // so swap-erase keeps removal O(1).
  std::vector<Resident>& bucket = buckets_[bucket_of_[u]];
  const std::uint32_t e = entry_of_[u];
  bucket[e] = bucket.back();
  entry_of_[bucket[e].id] = e;
  bucket.pop_back();
}

std::size_t DynamicDiskGraph::link_scan(NodeId u,
                                        std::vector<NodeId>& found) const {
  const Node& nu = nodes_[u];
  const double ux = nu.pos.x;
  const double uy = nu.pos.y;
  const double ur = nu.radius;
  std::size_t k = 0;
  grid_.for_each_cell(nu.pos, ur, [&](std::size_t c) {
    const std::vector<Resident>& bucket = buckets_[c];
    if (found.size() < k + bucket.size()) found.resize(k + bucket.size());
    // The exact filter, branch-free: every resident is written, and the
    // cursor steps past the linked ones (u itself sits in its own cell).
    NodeId* const out = found.data();
    for (const Resident& v : bucket) {
      out[k] = v.id;
      const bool linked = in_link_range(ux, uy, ur, v.x, v.y, v.r);
      k += static_cast<std::size_t>(linked) &
           static_cast<std::size_t>(v.id != u);
    }
  });
  return k;
}

bool DynamicDiskGraph::linked(NodeId u, NodeId v) const noexcept {
  const std::vector<NodeId>& adj = adjacency_[u];
  return std::binary_search(adj.begin(), adj.end(), v);
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

MLDCS_HOT_PATH void DynamicDiskGraph::place_movers(
    std::span<const Node> current) {
  // In region mode this is also where residency flips: an entering node
  // gets a bucket entry, a leaving node loses its entry (so no later walk
  // can see it) and keeps in_moved_ == 2 for phase 2.  A mover that stays
  // in its cell still rewrites its entry's copied position.
  std::uint64_t rebucketed = 0;
  for (const NodeId u : delta_.moved) {
    assert(current[u].radius == nodes_[u].radius &&
           "apply: radii are fixed under mobility");
    const geom::Vec2 pos = current[u].pos;
    nodes_[u].pos = pos;
    if (in_moved_[u] == 2) {
      erase_resident(u);
      resident_[u] = 0;
      --resident_count_;
      continue;
    }
    in_moved_[u] = 1;
    const std::size_t cell = grid_.cell_of(pos);
    if (resident_[u] == 0) {
      insert_resident(u, cell);
      resident_[u] = 1;
      ++resident_count_;
    } else if (cell == bucket_of_[u]) {
      Resident& e = buckets_[cell][entry_of_[u]];
      e.x = pos.x;
      e.y = pos.y;
    } else {
      erase_resident(u);
      insert_resident(u, cell);
      ++rebucketed;
    }
  }
  // Shard graphs step concurrently and report through shard.* counters
  // instead (and must not race to first-initialize the registry entries).
  if (!region_mode_ && rebucketed != 0) {
    graph_telemetry().rebucketed.add(rebucketed);
  }
}

MLDCS_HOT_PATH void DynamicDiskGraph::diff_movers(SlotScratch& cs,
                                                  std::size_t lo,
                                                  std::size_t hi) {
  // cs.mark is all zero between movers: 1 = in u's old list, 2 = found by
  // the walk only (added), 3 = both (kept).
  std::uint8_t* const mark = cs.mark.data();
  for (std::size_t m = lo; m < hi; ++m) {
    const NodeId u = delta_.moved[m];
    std::vector<NodeId>& adj = adjacency_[u];
    for (const NodeId v : adj) mark[v] = 1;

    // The walk, in bucket order.  An evicted node's new list is empty by
    // fiat — its bucket entry is already gone, so every old link shows up
    // as removed.
    const std::size_t n_found =
        in_moved_[u] == 2 ? 0 : link_scan(u, cs.found);
    if (cs.added.size() < n_found) cs.added.resize(n_found);
    const NodeId* const found = cs.found.data();
    NodeId* const added = cs.added.data();
    std::size_t n_added = 0;
    for (std::size_t f = 0; f < n_found; ++f) {
      const NodeId v = found[f];
      const std::uint8_t was = mark[v];
      mark[v] = static_cast<std::uint8_t>(was | 2);
      added[n_added] = v;
      n_added += static_cast<std::size_t>(was == 0);
    }

    // The old list in order: compact the kept ids to its front, collect
    // the removed ones, and clear every mark.  Branch-free, like the
    // classification above: at high speed over half the links flip.
    const std::size_t n_old = adj.size();
    if (cs.removed.size() < n_old) cs.removed.resize(n_old);
    NodeId* const removed = cs.removed.data();
    NodeId* const list = adj.data();
    std::size_t n_kept = 0;
    std::size_t n_removed = 0;
    for (std::size_t i = 0; i < n_old; ++i) {
      const NodeId v = list[i];
      const bool kept = mark[v] == 3;
      mark[v] = 0;
      list[n_kept] = v;
      removed[n_removed] = v;
      n_kept += static_cast<std::size_t>(kept);
      n_removed += static_cast<std::size_t>(!kept);
    }
    for (std::size_t a = 0; a < n_added; ++a) mark[added[a]] = 0;
    // Only the added ids need ordering.  Each one's rank is the number of
    // smaller ones (the ids are distinct): a branch-free count that
    // vectorizes, where a comparison sort mispredicts about every other
    // compare.  It is quadratic, so long lists fall back to std::sort.
    NodeId* const sorted = cs.found.data();  // the walk's output is spent
    if (n_added <= kRankSortMax) {
      for (std::size_t a = 0; a < n_added; ++a) {
        const NodeId v = added[a];
        std::uint32_t rank = 0;  // 32-bit lanes: four compares per vector
        for (std::size_t b = 0; b < n_added; ++b) {
          rank += static_cast<std::uint32_t>(added[b] < v);
        }
        sorted[rank] = v;
      }
    } else {
      std::copy(added, added + n_added, sorted);
      std::sort(sorted, sorted + n_added);
    }

    // A flip between two movers shows up in both of their diffs (linked_to
    // is symmetric and both sides see post-move positions): each marks only
    // itself, and the flip is counted from the lower one.  An unmoved
    // endpoint gets a queued patch instead, and phase 3 marks it.  Whether
    // a flip's far end moved is the same for nearly every flip of a step,
    // so only that branch remains, and it predicts well.
    const auto record = [&](NodeId v, bool is_added) {
      const bool unmoved = in_moved_[v] == 0;
      if (unmoved) cs.patches.push_back({v, u, is_added});
      return static_cast<std::size_t>(unmoved || u < v);
    };
    for (std::size_t r = 0; r < n_removed; ++r) {
      cs.removed_edges += record(removed[r], false);
    }
    for (std::size_t a = 0; a < n_added; ++a) {
      cs.added_edges += record(sorted[a], true);
    }
    if (n_removed + n_added != 0) link_mark_[u] = 1;  // u's own byte only

    // The new list: the kept ids merged with the added ones, from the back
    // and branch-free while both have ids left.  Regrow with slack first.
    const std::size_t n_new = n_kept + n_added;
    adj.resize(n_kept);
    if (adj.capacity() < n_new) adj.reserve(slack_for(n_new));
    adj.resize(n_new);
    NodeId* const out = adj.data();
    std::size_t i = n_kept;
    std::size_t j = n_added;
    std::size_t w = n_new;
    while (i > 0 && j > 0) {
      const NodeId a = out[i - 1];
      const NodeId b = sorted[j - 1];
      const bool take_kept = a > b;
      out[--w] = take_kept ? a : b;
      i -= static_cast<std::size_t>(take_kept);
      j -= static_cast<std::size_t>(!take_kept);
    }
    std::copy(sorted, sorted + j, out);  // i == 0 here, so w == j
  }
}

MLDCS_HOT_PATH void DynamicDiskGraph::patch_unmoved() {
  // Which slot queued which edit depends on the schedule, but the result
  // does not.  Every edit inserts or erases a mover id in the sorted list
  // of an unmoved endpoint, and the edits to one list name distinct movers
  // (each mover diffs its own list once), so they commute; the counts are
  // sums.
  patched_.clear();
  for (const SlotScratch& cs : slots_) {
    for (const Patch& p : cs.patches) {
      std::vector<NodeId>& adj = adjacency_[p.v];
      const auto pos = std::lower_bound(adj.begin(), adj.end(), p.u);
      p.added ? static_cast<void>(adj.insert(pos, p.u))
              : static_cast<void>(adj.erase(pos));
      if (link_mark_[p.v] == 0) {
        link_mark_[p.v] = 1;
        patched_.push_back(p.v);
      }
    }
    delta_.edges_added += cs.added_edges;
    delta_.edges_removed += cs.removed_edges;
  }

  // link_changed: the marked movers, already ascending in delta_.moved,
  // merged with the patched unmoved endpoints — the one sort, over those
  // alone (none when every node moves).  Gathering clears every mark.
  std::sort(patched_.begin(), patched_.end());
  auto next = patched_.cbegin();
  for (const NodeId u : delta_.moved) {
    if (link_mark_[u] == 0) continue;
    link_mark_[u] = 0;
    for (; next != patched_.cend() && *next < u; ++next) {
      delta_.link_changed.push_back(*next);
    }
    delta_.link_changed.push_back(u);
  }
  delta_.link_changed.insert(delta_.link_changed.end(), next,
                             patched_.cend());
  for (const NodeId v : patched_) link_mark_[v] = 0;
}

MLDCS_HOT_PATH const DynamicDiskGraph::StepDelta&
DynamicDiskGraph::apply_moved(
    std::span<const Node> current) {
  const obs::Scope scope(obs::Phase::kGraphApply);
  delta_.link_changed.clear();
  delta_.edges_added = 0;
  delta_.edges_removed = 0;

  if (region_mode_) classify_movers(current);

  // Phase 1: commit every moved position and its bucket entry, so phase
  // 2's walks and symmetric link tests all see the new geometry.
  place_movers(current);

  // Phase 2: the per-mover diff, inline or in self-scheduled blocks of
  // movers on the pool.  Whole-plane only: a region graph is a shard
  // already stepped on a pool worker inside the engine's barrier.
  const std::size_t movers = delta_.moved.size();
  sim::ThreadPool* const pool =
      !region_mode_ && movers >= kParallelApplyMovers ? sim::fan_out_pool()
                                                      : nullptr;
  if (pool != nullptr && slots_.size() < pool->size()) {
    slots_.resize(pool->size());
    for (SlotScratch& cs : slots_) cs.mark.resize(nodes_.size(), 0);
  }
  for (SlotScratch& cs : slots_) {
    cs.patches.clear();
    cs.added_edges = 0;
    cs.removed_edges = 0;
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

  // Phase 3: patch the unmoved endpoints and gather link_changed.
  patch_unmoved();
  edges_ += delta_.edges_added;
  edges_ -= delta_.edges_removed;
  for (const NodeId u : delta_.moved) in_moved_[u] = 0;

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
