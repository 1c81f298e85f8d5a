#pragma once

/// \file disk_graph.hpp
/// The network topology model of Section 3.1: a disk graph with
/// bidirectional links — nodes u, v are adjacent iff
/// ||u - v|| <= min(r_u, r_v).

#include <cstddef>
#include <span>
#include <vector>

#include "net/node.hpp"

namespace mldcs::net {

/// Immutable bidirectional disk graph in CSR adjacency layout.
class DiskGraph {
 public:
  /// Deployments of at least this many nodes build their count and fill
  /// passes on sim::fan_out_pool(), the paper's ~1000-node graphs
  /// included.  Measured at the paper's density (4-core x86-64, Release,
  /// warm workers, medians of 300 builds): pooled 0.17-0.19 against
  /// 0.48-0.51 ms inline at 257 nodes, 0.69-0.75 against 2.3-2.5 ms at 999.
  static constexpr std::size_t kParallelBuildNodes = 256;

  /// Build the graph.  Node ids are reassigned to positions in `nodes`
  /// (callers address nodes by index).  Uses a spatial grid, O(N * degree);
  /// deployments of kParallelBuildNodes or more run on sim::fan_out_pool(),
  /// with the same result.
  /// Throws std::invalid_argument, naming the node index, if a position or
  /// radius is not finite.
  static DiskGraph build(std::vector<Node> nodes);

  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const noexcept { return nodes_[id]; }

  /// 1-hop neighbors of `id`, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const noexcept;

  /// Degree of `id`.
  [[nodiscard]] std::size_t degree(NodeId id) const noexcept {
    return neighbors(id).size();
  }

  /// True if u and v are adjacent (binary search; u != v assumed).
  [[nodiscard]] bool linked(NodeId u, NodeId v) const noexcept;

  /// Strict 2-hop neighbors of `id`: nodes at graph distance exactly 2
  /// (neighbors of neighbors, minus id and its 1-hop set), sorted ascending.
  [[nodiscard]] std::vector<NodeId> two_hop_neighbors(NodeId id) const;

  /// Scratch-buffer overload: fills `out` (cleared first, capacity reused)
  /// instead of allocating a fresh vector — the form relay sweeps should
  /// use (see bcast::local_view's reuse overload).
  void two_hop_neighbors(NodeId id, std::vector<NodeId>& out) const;

  /// Number of edges (each counted once).
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return adjacency_.size() / 2;
  }

  /// Average degree over all nodes.
  [[nodiscard]] double average_degree() const noexcept {
    return nodes_.empty() ? 0.0
                          : static_cast<double>(adjacency_.size()) /
                                static_cast<double>(nodes_.size());
  }

  /// Ids of all nodes reachable from `from` (including it), via BFS.
  [[nodiscard]] std::vector<NodeId> reachable_from(NodeId from) const;

  /// True if the graph is connected (or empty).
  [[nodiscard]] bool connected() const;

 private:
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> offsets_;  ///< size() + 1 entries
  std::vector<NodeId> adjacency_;       ///< neighbor lists, sorted per node
};

}  // namespace mldcs::net
