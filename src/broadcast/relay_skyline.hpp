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

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "core/arc.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/disk.hpp"
#include "net/node.hpp"

namespace mldcs::bcast::detail {

/// Reusable per-worker scratch for relay_forwarding_set.  One per worker
/// (chunk, shard, or watchdog) makes a whole sweep allocation-free in
/// steady state: every buffer keeps its high-water capacity across relays.
struct RelayScratch {
  core::SkylineWorkspace ws;
  std::vector<geom::Disk> disks;
  std::vector<core::Arc> arcs;
  std::vector<std::size_t> sky_set;
  std::vector<net::NodeId> relay_ids;  ///< the result (sorted ascending)
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
