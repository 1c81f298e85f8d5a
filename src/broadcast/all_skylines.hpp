#pragma once

/// \file all_skylines.hpp
/// Batched whole-network MLDCS computation: the forwarding set of *every*
/// node of a deployment in one call.
///
/// Network-scale broadcast studies (storm simulations, the all-relay
/// tables, the ROADMAP's whole-network serving workloads) need the skyline
/// forwarding set of each node, not just the center source.  Doing that
/// with per-relay calls pays, per node, a LocalView construction (including
/// an unneeded 2-hop BFS — the skyline scheme is 1-hop only) and fresh
/// vectors for disks and arcs.  compute_all_skylines instead runs every
/// node as one relay batch (the calling thread's detail::RelayBatch,
/// relay_skyline.hpp, kept across sweeps): it walks the CSR adjacency
/// directly with one SkylineWorkspace per pool participant, which claims
/// blocks of nodes until none is left, so a warmed-up thread's sweep
/// allocates only its result (3 arrays) rather than O(1) per node —
/// measured >= 2x faster than the per-relay loop (see bench/perf_suite.cpp
/// and docs/PERFORMANCE.md).

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "net/disk_graph.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast {

/// The MLDCS forwarding set of every node, in CSR layout, plus per-node
/// skyline arc counts (the Lemma 8 instrumentation).
class AllSkylines {
 public:
  AllSkylines() = default;

  /// Number of nodes covered.
  [[nodiscard]] std::size_t size() const noexcept { return arc_counts_.size(); }

  /// The skyline/MLDCS forwarding set of node `u`: sorted 1-hop neighbor
  /// ids designated to re-transmit.  Identical to
  /// skyline_forwarding_set(g, local_view(g, u)).
  [[nodiscard]] std::span<const net::NodeId> forwarding_set(
      net::NodeId u) const noexcept {
    return {ids_.data() + offsets_[u], ids_.data() + offsets_[u + 1]};
  }

  /// Arc count of node `u`'s skyline (bounded by Lemma 8: 2 * (degree+1)).
  [[nodiscard]] std::size_t arc_count(net::NodeId u) const noexcept {
    return arc_counts_[u];
  }

  /// Largest skyline arc count over all nodes.
  [[nodiscard]] std::size_t max_arc_count() const noexcept;

  /// Total forwarding-set cardinality over all nodes.
  [[nodiscard]] std::size_t total_forwarders() const noexcept {
    return ids_.size();
  }

  /// Mean forwarding-set size over all nodes.
  [[nodiscard]] double average_forwarding_size() const noexcept;

 private:
  friend AllSkylines compute_all_skylines(const net::DiskGraph& g,
                                          sim::ThreadPool& pool);

  std::vector<std::uint32_t> offsets_;     ///< size() + 1 entries
  std::vector<net::NodeId> ids_;           ///< forwarding sets, sorted per node
  std::vector<std::uint32_t> arc_counts_;  ///< skyline arcs per node
};

/// Compute the MLDCS forwarding set of every node of `g`, parallelized over
/// `pool` with one SkylineWorkspace per participant.  Deterministic: the
/// result is independent of the pool's thread count and of which
/// participant ran which block.
[[nodiscard]] MLDCS_HOT_PATH AllSkylines compute_all_skylines(
    const net::DiskGraph& g, sim::ThreadPool& pool);

}  // namespace mldcs::bcast
