#pragma once

/// \file relay_skyline.hpp
/// The shared inner loop of batched MLDCS computation: one relay's skyline
/// forwarding set straight from adjacency, using caller-owned scratch.
///
/// Every whole-network path runs exactly this per relay — the one-shot
/// `compute_all_skylines`, the incremental `SkylineCache`, each sharded
/// `ShardCache`, the cache watchdog's from-scratch reference, and each
/// transmitter of a skyline `simulate_broadcast` — so the bit-identical
/// guarantee between them reduces to sharing this function.
/// Templated on the graph type (`net::DiskGraph` and `net::DynamicDiskGraph`
/// expose the same node()/neighbors() surface).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "core/arc.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/disk.hpp"
#include "net/node.hpp"

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

/// One participant's share of a block-parallel relay loop (one
/// sim::ThreadPool::parallel_blocks slot): the forwarding sets of the
/// blocks it claimed, back to back in claim order, and its scratch.
struct SlotSets {
  std::vector<net::NodeId> ids;
  RelayScratch scratch;
};

/// Where one block's forwarding sets start: in SlotSets `slot`'s ids, at
/// `offset`.  Indexed by block, so a serial walk over the blocks reads the
/// sets in relay order whichever slot ran each block.
struct BlockBegin {
  std::size_t slot = 0;
  std::size_t offset = 0;
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

}  // namespace mldcs::bcast::detail
