#include "net/disk_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/spatial_grid.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::net {

DiskGraph DiskGraph::build(std::vector<Node> nodes) {
  DiskGraph g;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].id = static_cast<NodeId>(i);
  }
  g.nodes_ = std::move(nodes);
  const std::size_t n = g.nodes_.size();

  // A non-finite coordinate would reach the grid's floor-to-int64 cell
  // mapping (UB for NaN) and an infinite one would size its cell array
  // without bound, so reject both here, at the boundary.
  for (const Node& node : g.nodes_) {
    if (!std::isfinite(node.pos.x) || !std::isfinite(node.pos.y) ||
        !std::isfinite(node.radius)) {
      throw std::invalid_argument(
          "DiskGraph::build: node " + std::to_string(node.id) +
          " has a non-finite position or radius");
    }
  }
  const SpatialGrid grid(g.nodes_);

  // Two passes over the nodes, each walking a node's cells once through
  // the branch-free link filter.  A node's neighbors are within
  // min(r_u, r_v) <= r_u of it, so the cells at range r_u hold all of
  // them.  The count pass sizes each node's CSR segment and finds the most
  // candidates one walk visits; the fill pass appends each walk to its
  // participant's scratch and writes the list, ordered, into the segment
  // (both decide every pair with `links`, so the list fills it exactly).
  // A node's list depends on the node alone, so both passes run over
  // contiguous node ranges, in blocks on the pool from kParallelBuildNodes
  // nodes and as one block below, with the same output.  Every buffer (the
  // CSR arrays, one walk's scratch per participant) is allocated here, on
  // the calling thread, between them.
  sim::ThreadPool& pool = sim::default_pool();
  const std::size_t block = n >= kParallelBuildNodes ? kParallelBuildBlock : n;
  const std::size_t slots = pool.participants(n, block);

  g.offsets_.assign(n + 1, 0);
  std::vector<std::size_t> widest(slots, 0);  // candidates, per slot
  pool.parallel_blocks(n, block, [&](std::size_t slot, std::size_t lo,
                                     std::size_t hi) {
    std::size_t wide = widest[slot];
    for (std::size_t i = lo; i < hi; ++i) {
      const GridEntry u = GridEntry::of(g.nodes_[i]);
      std::size_t deg = 0;
      std::size_t seen = 0;
      grid.for_each_cell({u.x, u.y}, u.r, [&](std::span<const GridEntry> c) {
        for (const GridEntry& v : c) deg += links(u, v);
        seen += c.size();
      });
      g.offsets_[i + 1] = static_cast<std::uint32_t>(deg);  // prefix-summed
      wide = std::max(wide, seen);
    }
    widest[slot] = wide;
  });
  for (std::size_t i = 0; i < n; ++i) g.offsets_[i + 1] += g.offsets_[i];
  g.adjacency_.resize(g.offsets_[n]);

  const std::size_t stride = *std::max_element(widest.begin(), widest.end());
  std::vector<NodeId> found(slots * stride);
  pool.parallel_blocks(n, block, [&](std::size_t slot, std::size_t lo,
                                     std::size_t hi) {
    NodeId* const scratch = found.data() + slot * stride;
    for (std::size_t i = lo; i < hi; ++i) {
      const GridEntry u = GridEntry::of(g.nodes_[i]);
      std::size_t k = 0;
      grid.for_each_cell({u.x, u.y}, u.r, [&](std::span<const GridEntry> c) {
        k = append_links(u, c, scratch, k);
      });
      sort_distinct_ids(scratch, k, g.adjacency_.data() + g.offsets_[i]);
    }
  });
  return g;
}

std::span<const NodeId> DiskGraph::neighbors(NodeId id) const noexcept {
  return {adjacency_.data() + offsets_[id],
          adjacency_.data() + offsets_[id + 1]};
}

bool DiskGraph::linked(NodeId u, NodeId v) const noexcept {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<NodeId> DiskGraph::two_hop_neighbors(NodeId id) const {
  std::vector<NodeId> out;
  two_hop_neighbors(id, out);
  return out;
}

void DiskGraph::two_hop_neighbors(NodeId id, std::vector<NodeId>& out) const {
  const auto one_hop = neighbors(id);
  out.clear();
  for (NodeId v : one_hop) {
    for (NodeId w : neighbors(v)) {
      if (w == id) continue;
      if (std::binary_search(one_hop.begin(), one_hop.end(), w)) continue;
      out.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<NodeId> DiskGraph::reachable_from(NodeId from) const {
  std::vector<NodeId> out;
  if (from >= nodes_.size()) return out;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> frontier{from};
  seen[from] = true;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    out.push_back(u);
    for (NodeId v : neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        frontier.push_back(v);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool DiskGraph::connected() const {
  if (nodes_.empty()) return true;
  return reachable_from(0).size() == nodes_.size();
}

}  // namespace mldcs::net
