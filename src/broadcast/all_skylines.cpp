#include "broadcast/all_skylines.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "broadcast/relay_skyline.hpp"

namespace mldcs::bcast {

std::size_t AllSkylines::max_arc_count() const noexcept {
  std::size_t m = 0;
  for (const std::uint32_t c : arc_counts_) m = std::max<std::size_t>(m, c);
  return m;
}

double AllSkylines::average_forwarding_size() const noexcept {
  return arc_counts_.empty() ? 0.0
                             : static_cast<double>(ids_.size()) /
                                   static_cast<double>(arc_counts_.size());
}

MLDCS_HOT_PATH AllSkylines compute_all_skylines(const net::DiskGraph& g,
                                                sim::ThreadPool& pool) {
  const std::size_t n = g.size();
  AllSkylines out;
  out.offsets_.assign(n + 1, 0);
  out.arc_counts_.assign(n, 0);
  if (n == 0) return out;

  // Each chunk appends its nodes' forwarding sets to a private blob and
  // stages per-node set sizes and arc counts in private arrays too — the
  // sweep writes NOTHING shared, so chunk-boundary cache lines never
  // ping-pong between workers.  Chunks cover contiguous node ranges, so
  // after a (serial, O(n)) prefix sum the stitch is one straight copy per
  // chunk, run back on the pool: the memory-bandwidth-heavy patch-in
  // scales with the workers instead of serializing on the caller.  The
  // chunk struct also carries the per-chunk scratch (skyline workspace
  // plus the local disk set / arc / index buffers), reused across every
  // node of the range.
  struct ChunkOut {
    std::vector<net::NodeId> ids;
    std::vector<std::uint32_t> set_sizes;   // per node in [lo, hi)
    std::vector<std::uint32_t> arc_counts;  // per node in [lo, hi)
    std::size_t lo = 0;
    detail::RelayScratch scratch;
  };
  // mldcs-analyze:allow(hot-no-alloc): one-shot sweep setup, O(threads)
  std::vector<ChunkOut> chunk_out(std::min(pool.size(), n));

  // Per-relay skyline cost scales with the local disk set (the relay's
  // 1-hop neighborhood), so chunk by degree instead of node count —
  // otherwise a contiguous cluster of hubs lands in one chunk and the
  // sweep waits on that worker.  +1 keeps isolated nodes visible to the
  // boundary sweep (their per-call overhead is not zero).
  // mldcs-analyze:allow(hot-no-alloc): one-shot sweep setup, O(nodes)
  std::vector<std::uint32_t> weights(n);
  for (std::size_t u = 0; u < n; ++u) {
    weights[u] =
        static_cast<std::uint32_t>(g.degree(static_cast<net::NodeId>(u)) + 1);
  }

  pool.parallel_weighted_chunks(weights, [&](std::size_t c, std::size_t lo,
                                             std::size_t hi) {
    ChunkOut& co = chunk_out[c];
    co.lo = lo;
    co.scratch.ws.reserve(64);
    co.set_sizes.reserve(hi - lo);
    co.arc_counts.reserve(hi - lo);
    for (std::size_t u = lo; u < hi; ++u) {
      const net::NodeId id = static_cast<net::NodeId>(u);
      co.arc_counts.push_back(detail::relay_forwarding_set(g, id, co.scratch));
      const std::vector<net::NodeId>& set = co.scratch.relay_ids;
      co.ids.insert(co.ids.end(), set.begin(), set.end());
      co.set_sizes.push_back(static_cast<std::uint32_t>(set.size()));
    }
  });

  // Serial O(n) spine: shifted counts, then the prefix sum.
  for (const ChunkOut& co : chunk_out) {
    std::copy(co.set_sizes.begin(), co.set_sizes.end(),
              out.offsets_.begin() + co.lo + 1);
  }
  for (std::size_t i = 0; i < n; ++i) out.offsets_[i + 1] += out.offsets_[i];
  out.ids_.resize(out.offsets_[n]);

  // Parallel stitch: each chunk patches its own contiguous CSR span and
  // arc-count range; spans are disjoint by construction, so no locking.
  pool.parallel_for(chunk_out.size(), [&](std::size_t c) {
    const ChunkOut& co = chunk_out[c];
    std::copy(co.ids.begin(), co.ids.end(),
              out.ids_.begin() + out.offsets_[co.lo]);
    std::copy(co.arc_counts.begin(), co.arc_counts.end(),
              out.arc_counts_.begin() + co.lo);
  });
  return out;
}

}  // namespace mldcs::bcast
