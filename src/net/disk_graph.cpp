#include "net/disk_graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "net/spatial_grid.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::net {

namespace {

/// Nodes per block of a pooled pass: a 999-node build hands out 16 blocks
/// per pass, enough for a slow core to claim fewer of them.  Blocks of 32,
/// 64 and 128 nodes built 999 nodes alike (0.57-0.66 ms, 4-core x86-64);
/// 32 was the slowest of the three at 15,974.
constexpr std::size_t kBuildBlock = 64;

}  // namespace

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

  // Count-then-fill CSR build, no per-node vectors.  A node's neighbors are
  // within min(r_u, r_v) <= r_u of it, so visiting the grid candidates at
  // range r_u and filtering by the bidirectional rule finds all of them;
  // the visit is cheap enough that running it twice (count pass, fill pass)
  // beats materializing a vector<vector> of all adjacency lists.  Neither
  // pass allocates, and each node's entries depend on the node alone, so
  // the passes run over contiguous node ranges, inline or in blocks on the
  // pool, with the same output.
  g.offsets_.assign(n + 1, 0);
  const auto count_range = [&g, &grid](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Node& u = g.nodes_[i];
      std::uint32_t deg = 0;
      grid.for_each_candidate(u.pos, u.radius, [&](NodeId v) {
        if (v != u.id && u.linked_to(g.nodes_[v])) ++deg;
      });
      g.offsets_[i + 1] = deg;  // shifted; prefix-summed below
    }
  };
  const auto fill_range = [&g, &grid](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Node& u = g.nodes_[i];
      NodeId* const first = g.adjacency_.data() + g.offsets_[i];
      NodeId* dst = first;
      grid.for_each_candidate(u.pos, u.radius, [&](NodeId v) {
        if (v != u.id && u.linked_to(g.nodes_[v])) *dst++ = v;
      });
      std::sort(first, dst);
    }
  };

  sim::ThreadPool* const pool =
      n >= kParallelBuildNodes ? sim::fan_out_pool() : nullptr;
  const auto run_pass = [pool, n](const auto& pass) {
    if (pool == nullptr) {
      pass(0, n);
      return;
    }
    pool->parallel_blocks(
        n, kBuildBlock,
        [&pass](std::size_t /*slot*/, std::size_t lo, std::size_t hi) {
          pass(lo, hi);
        });
  };

  run_pass(count_range);
  for (std::size_t i = 0; i < n; ++i) g.offsets_[i + 1] += g.offsets_[i];
  g.adjacency_.resize(g.offsets_[n]);
  run_pass(fill_range);
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
