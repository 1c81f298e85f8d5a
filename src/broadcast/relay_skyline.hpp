#pragma once

/// \file relay_skyline.hpp
/// The shared inner loop of batched MLDCS computation: one relay's skyline
/// forwarding set straight from adjacency, using caller-owned scratch, and
/// `RelayBatch`, the one loop that runs it over a batch of relays.
///
/// Every whole-network path runs exactly this per relay — the one-shot
/// `compute_all_skylines`, the incremental `SkylineCache` and each
/// skyline `simulate_broadcast` frontier (all three through a
/// `RelayBatch`), each sharded `ShardCache`, and the cache watchdog's
/// from-scratch reference — so the bit-identical guarantee between them
/// reduces to sharing this function.
/// Templated on the graph type (`net::DiskGraph` and `net::DynamicDiskGraph`
/// expose the same node()/neighbors() surface).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "core/arc.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/disk.hpp"
#include "net/node.hpp"
#include "obs/scope.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast::detail {

/// Relays per block when a relay loop runs on sim::ThreadPool's
/// parallel_blocks.  Measured on a 999-relay sweep (4-core x86-64): block
/// sizes 1, 4 and 16 were within 3% of each other, and 32 was slower.
inline constexpr std::size_t kRelayBlock = 8;

/// Reusable per-worker scratch for relay_forwarding_set.  One per worker
/// (slot, shard, or watchdog) makes a whole sweep allocation-free in
/// steady state: every buffer keeps its high-water capacity across relays.
struct RelayScratch {
  core::SkylineWorkspace ws;
  std::vector<geom::Disk> disks;
  std::vector<core::Arc> arcs;
  std::vector<std::size_t> sky_set;
  std::vector<net::NodeId> relay_ids;  ///< the result (sorted ascending)

  /// Grow every buffer for relays of up to `max_degree` neighbors, so no
  /// later relay_forwarding_set call on such a relay allocates.  A local
  /// disk set of k disks has at most 2k skyline arcs (Lemma 8).
  MLDCS_ALLOC_OK void reserve(std::size_t max_degree) {
    const std::size_t k = max_degree + 1;
    ws.reserve(k);
    disks.reserve(k);
    arcs.reserve(2 * k);
    sky_set.reserve(2 * k);
    relay_ids.reserve(max_degree);
  }
};

/// Compute relay `id`'s skyline forwarding set into `s.relay_ids` (cleared
/// first; sorted ascending) and return the skyline arc count.
template <typename Graph>
MLDCS_HOT_PATH MLDCS_NO_LOCK std::uint32_t relay_forwarding_set(
    const Graph& g, net::NodeId id, RelayScratch& s) {
  const auto nb = g.neighbors(id);
  s.disks.clear();
  s.disks.push_back(g.node(id).disk());
  for (const net::NodeId v : nb) s.disks.push_back(g.node(v).disk());

  core::compute_skyline_arcs(s.disks, g.node(id).pos, s.ws, s.arcs);

  // Skyline set: sorted unique disk indices.  Disk 0 is the relay itself —
  // its area was served by the transmission the relay already made, so it
  // never needs a forwarder (Section 3.2).  Neighbor disks follow `nb`'s
  // ascending id order, so ascending indices map to ascending node ids
  // with no re-sort.
  s.sky_set.clear();
  for (const core::Arc& a : s.arcs) s.sky_set.push_back(a.disk);
  std::sort(s.sky_set.begin(), s.sky_set.end());
  s.sky_set.erase(std::unique(s.sky_set.begin(), s.sky_set.end()),
                  s.sky_set.end());
  s.relay_ids.clear();
  for (const std::size_t idx : s.sky_set) {
    if (idx == 0) continue;
    s.relay_ids.push_back(nb[idx - 1]);
  }
  return static_cast<std::uint32_t>(s.arcs.size());
}

/// The forwarding sets of a batch of relays, computed together: the loop
/// behind compute_all_skylines, the SkylineCache recompute and each
/// skyline simulate_broadcast frontier.  Relay k's set lands in its own
/// stretch of one buffer, as long as the relay's degree (a set is a subset
/// of the neighbors), so where a set goes does not depend on which
/// participant computed it.  Every buffer only grows, and compute()
/// reserves every participant's scratch for the batch's largest degree
/// before anyone claims a block, so what a batch allocates depends on its
/// inputs, never on the schedule: one kept across calls stops allocating
/// once it has seen its largest batch.
class RelayBatch {
 public:
  /// Compute the set and arc count of every relays[k] (a sized
  /// random-access range of ids of `g`): in self-scheduled blocks of
  /// kRelayBlock on `pool`, inline when `pool` is null, each block inside
  /// obs::Scope(phase).  Replaces the previous batch.
  template <typename Graph, std::ranges::random_access_range Relays>
  MLDCS_HOT_PATH void compute(const Graph& g, const Relays& relays,
                              sim::ThreadPool* pool, obs::Phase phase) {
    const std::size_t n = std::ranges::size(relays);
    first_.resize(n + 1);  // first_[0] stays 0
    len_.resize(n);
    arcs_.resize(n);
    std::size_t max_degree = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t degree = g.neighbors(relays[k]).size();
      max_degree = std::max(max_degree, degree);
      first_[k + 1] = first_[k] + degree;
    }
    ids_.resize(first_[n]);
    const std::size_t participants = pool == nullptr ? 1 : pool->size();
    if (scratch_.size() < participants) scratch_.resize(participants);
    for (RelayScratch& s : scratch_) s.reserve(max_degree);

    const auto run = [&](std::size_t slot, std::size_t lo, std::size_t hi) {
      const obs::Scope block(phase);
      RelayScratch& s = scratch_[slot];
      for (std::size_t k = lo; k < hi; ++k) {
        arcs_[k] = relay_forwarding_set(g, relays[k], s);
        len_[k] = static_cast<std::uint32_t>(s.relay_ids.size());
        std::copy(s.relay_ids.begin(), s.relay_ids.end(),
                  ids_.data() + first_[k]);
      }
    };
    if (pool == nullptr) {
      run(0, 0, n);
    } else {
      pool->parallel_blocks(n, kRelayBlock, run);
    }
  }

  /// The forwarding set of the last batch's relays[k], sorted ascending.
  [[nodiscard]] std::span<const net::NodeId> set(std::size_t k) const noexcept {
    return {ids_.data() + first_[k], len_[k]};
  }

  /// The skyline arc count of the last batch's relays[k].
  [[nodiscard]] std::uint32_t arc_count(std::size_t k) const noexcept {
    return arcs_[k];
  }

 private:
  std::vector<std::size_t> first_;     ///< relays[k]'s stretch starts here
  std::vector<std::uint32_t> len_;     ///< set length per position
  std::vector<std::uint32_t> arcs_;    ///< arc count per position
  std::vector<net::NodeId> ids_;       ///< the stretches, back to back
  std::vector<RelayScratch> scratch_;  ///< one per participant (slot)
};

}  // namespace mldcs::bcast::detail
