#pragma once

/// \file relay_skyline.hpp
/// The shared inner loop of batched MLDCS computation: one relay's skyline
/// forwarding set straight from adjacency, using caller-owned scratch, and
/// `RelayBatch`, the one loop that runs it over a batch of relays.
///
/// Every whole-network path runs exactly this per relay — the one-shot
/// `compute_all_skylines`, the incremental `SkylineCache` and each
/// skyline `simulate_broadcast` (all three through a `RelayBatch`), each
/// sharded `ShardCache`, and the cache watchdog's from-scratch reference
/// — so the bit-identical guarantee between them reduces to sharing this
/// function.
/// Templated on the graph type (`net::DiskGraph` and `net::DynamicDiskGraph`
/// expose the same node()/neighbors() surface).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/annotations.hpp"
#include "core/arc.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/disk.hpp"
#include "net/node.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bcast::detail {

/// Relays per block when a relay loop runs on sim::ThreadPool's
/// parallel_blocks.  Measured on a 999-relay sweep (4-core x86-64): block
/// sizes 1, 4 and 16 were within 3% of each other, and 32 was slower.
inline constexpr std::size_t kRelayBlock = 8;

/// Polls of an empty work list before a waiting closure participant
/// yields its core instead of pausing.
inline constexpr unsigned kPausesBeforeYield = 64;

/// One poll's wait in a closure participant that found the work list
/// empty for the moment: a CPU pause, and from the kPausesBeforeYield-th
/// poll on a yield, so no participant spins without giving up its core.
inline void backoff(unsigned polls) noexcept {
  if (polls >= kPausesBeforeYield) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Reusable per-worker scratch for relay_forwarding_set.  One per worker
/// (slot, shard, or watchdog) makes a whole sweep allocation-free in
/// steady state: every buffer keeps its high-water capacity across relays.
struct RelayScratch {
  core::SkylineWorkspace ws;
  std::vector<geom::Disk> disks;
  std::vector<core::Arc> arcs;
  std::vector<std::uint8_t> owns;      ///< per local disk; all 0 between calls
  std::vector<net::NodeId> relay_ids;  ///< the result (sorted ascending)

  /// Reserve every buffer for relays of up to `max_degree` neighbors, so
  /// no later relay_forwarding_set call on such a relay allocates.  A
  /// local disk set of k disks has at most 2k skyline arcs (Lemma 8).
  MLDCS_ALLOC_OK void reserve(std::size_t max_degree) {
    const std::size_t k = max_degree + 1;
    ws.reserve(k);
    disks.reserve(k);
    arcs.reserve(2 * k);
    owns.reserve(k);
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

  // Skyline set: the local disks that own an arc, marked, then read in
  // index order.  Disk 0 is the relay itself — its area was served by the
  // transmission the relay already made, so it never needs a forwarder
  // (Section 3.2).  Neighbor disks follow `nb`'s ascending id order, so
  // ascending indices map to ascending node ids with no sort.  Every
  // neighbor is stored at the write cursor, which advances only past an
  // owner, and the read clears each mark for the next call.
  if (s.owns.size() < s.disks.size()) s.owns.resize(s.disks.size());
  std::uint8_t* const owns = s.owns.data();
  for (const core::Arc& a : s.arcs) owns[a.disk] = 1;
  owns[0] = 0;
  s.relay_ids.resize(nb.size());
  net::NodeId* const ids = s.relay_ids.data();
  std::size_t w = 0;
  for (std::size_t i = 0; i < nb.size(); ++i) {
    ids[w] = nb[i];
    w += owns[i + 1];
    owns[i + 1] = 0;
  }
  s.relay_ids.resize(w);
  return static_cast<std::uint32_t>(s.arcs.size());
}

/// The forwarding sets of a batch of relays, computed together: the loop
/// behind compute_all_skylines, the SkylineCache recompute and the
/// skyline simulate_broadcast.  A set is a subset of its relay's
/// neighbors, so each set lands in its own degree-long stretch of one
/// buffer, and where it goes does not depend on which participant
/// computed it.  Every buffer only grows, and both modes reserve every
/// participant's scratch for the largest degree they may meet before
/// anyone claims work, so what a batch allocates depends on its inputs,
/// never on the schedule: one kept across calls stops allocating once it
/// has seen its largest graph.
class RelayBatch {
 public:
  /// Compute the set and arc count of every relays[k] (a sized
  /// random-access range of ids of `g`): in self-scheduled blocks of
  /// kRelayBlock on `pool`, in the caller's phase.  Replaces the previous
  /// batch; set(k) and arc_count(k) read by position k.
  template <typename Graph, std::ranges::random_access_range Relays>
  MLDCS_HOT_PATH void compute(const Graph& g, const Relays& relays,
                              sim::ThreadPool& pool) {
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
    reserve_participants(pool.participants(n, kRelayBlock), max_degree);

    pool.parallel_blocks(n, kRelayBlock, [&](std::size_t slot, std::size_t lo,
                                             std::size_t hi) {
      RelayScratch& s = scratch_[slot];
      for (std::size_t k = lo; k < hi; ++k) {
        arcs_[k] = relay_forwarding_set(g, relays[k], s);
        len_[k] = static_cast<std::uint32_t>(s.relay_ids.size());
        std::copy(s.relay_ids.begin(), s.relay_ids.end(),
                  ids_.data() + first_[k]);
      }
    });
  }

  /// Closure mode: the sets of every transmitter of a broadcast from
  /// `source` (a node of `g`), read afterwards as set(u) by node id.  The
  /// transmitters are the closure of {source} under "u transmits, its set
  /// names v, and gate(g, u, v) holds" (no gate: always), which depends on
  /// no order; each set keeps only the nodes its gate passes, so the gate
  /// runs once per named pair.  Sets sit at the graph's CSR offsets.
  ///
  /// Participants — up to `width` of them: the caller and `pool`'s workers
  /// in one parallel_blocks dispatch of one block each, or the caller alone
  /// when `width` is 1 — claim positions of one work list from a shared
  /// cursor.  A relay appends each node it newly names: a claim on the
  /// node's queued byte, a position from the list's tail, then a publish of
  /// that position.  A participant whose position is not yet published
  /// waits (backoff), and leaves once every discovered relay has finished.
  /// A participant must not throw (its unfinished relay would hold the
  /// others waiting), and none does: relay_forwarding_set runs on reserved
  /// scratch.
  template <typename Graph>
  MLDCS_HOT_PATH void closure(
      const Graph& g, net::NodeId source,
      std::type_identity_t<bool (*)(const Graph&, net::NodeId, net::NodeId)>
          gate,
      sim::ThreadPool& pool, std::size_t width) {
    const std::size_t n = g.size();
    first_.resize(n + 1);  // first_[0] stays 0
    len_.resize(n);
    std::size_t max_degree = 0;
    for (net::NodeId u = 0; u < n; ++u) {
      const std::size_t degree = g.neighbors(u).size();
      max_degree = std::max(max_degree, degree);
      first_[u + 1] = first_[u] + degree;
    }
    ids_.resize(first_[n]);
    order_.assign(n, net::kNoNode);
    queued_.assign(n, 0);
    const std::size_t participants = pool.participants(width, 1);
    reserve_participants(participants, max_degree);
    order_[0] = source;
    queued_[source] = 1;

    // Positions [0, discovered) hold published or about-to-be-published
    // relays; next is the cursor participants claim them from.
    alignas(64) std::atomic<std::size_t> next{0};
    alignas(64) std::atomic<std::size_t> discovered{1};
    alignas(64) std::atomic<std::size_t> finished{0};
    const auto participate = [&](std::size_t slot) noexcept {
      RelayScratch& s = scratch_[slot];
      for (;;) {
        const std::size_t p = next.fetch_add(1, std::memory_order_relaxed);
        if (p >= n) return;  // every node holds at most one position
        net::NodeId u = net::kNoNode;
        for (unsigned polls = 0;; ++polls) {
          u = std::atomic_ref<net::NodeId>(order_[p]).load(
              std::memory_order_acquire);
          if (u != net::kNoNode) break;
          // Every finished relay's discoveries (and its own position's)
          // happen before its finish, so equal counts mean no relay is
          // left to discover more: p lies past the closure's end.
          if (finished.load(std::memory_order_acquire) ==
              discovered.load(std::memory_order_acquire)) {
            return;
          }
          backoff(polls);
        }
        relay_forwarding_set(g, u, s);
        net::NodeId* const out = ids_.data() + first_[u];
        std::uint32_t len = 0;
        for (const net::NodeId v : s.relay_ids) {
          if (gate != nullptr && !gate(g, u, v)) continue;
          out[len++] = v;
          std::atomic_ref<std::uint8_t> queued(queued_[v]);
          if (queued.load(std::memory_order_relaxed) != 0 ||
              queued.exchange(1, std::memory_order_relaxed) != 0) {
            continue;
          }
          const std::size_t t =
              discovered.fetch_add(1, std::memory_order_relaxed);
          std::atomic_ref<net::NodeId>(order_[t]).store(
              v, std::memory_order_release);
        }
        len_[u] = len;
        finished.fetch_add(1, std::memory_order_release);
      }
    };
    pool.parallel_blocks(
        participants, 1,
        [&](std::size_t slot, std::size_t /*lo*/, std::size_t /*hi*/) {
          participate(slot);
        });
  }

  /// The set of the last compute()'s relays[k], or of the last closure()'s
  /// transmitter node k; sorted ascending.
  [[nodiscard]] std::span<const net::NodeId> set(std::size_t k) const noexcept {
    return {ids_.data() + first_[k], len_[k]};
  }

  /// The skyline arc count of the last compute()'s relays[k].
  [[nodiscard]] std::uint32_t arc_count(std::size_t k) const noexcept {
    return arcs_[k];
  }

 private:
  /// One reserved scratch per participant of the coming pass.
  MLDCS_ALLOC_OK void reserve_participants(std::size_t participants,
                                           std::size_t max_degree) {
    if (scratch_.size() < participants) scratch_.resize(participants);
    for (RelayScratch& s : scratch_) s.reserve(max_degree);
  }

  std::vector<std::size_t> first_;     ///< stretch k (position or node)
  std::vector<std::uint32_t> len_;     ///< set length per position or node
  std::vector<std::uint32_t> arcs_;    ///< compute(): arc count per position
  std::vector<net::NodeId> ids_;       ///< the stretches, back to back
  std::vector<net::NodeId> order_;     ///< closure(): the work list
  std::vector<std::uint8_t> queued_;   ///< closure(): 1 once a node is listed
  std::vector<RelayScratch> scratch_;  ///< one per participant (slot)
};

/// The calling thread's relay batch, kept for the thread's lifetime: the
/// one compute_all_skylines and every skyline simulate_broadcast run, so a
/// thread pays for its scratch once.
inline RelayBatch& thread_batch() {
  thread_local RelayBatch batch;
  return batch;
}

}  // namespace mldcs::bcast::detail
