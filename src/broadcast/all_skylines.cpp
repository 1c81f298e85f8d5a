#include "broadcast/all_skylines.hpp"

#include <algorithm>
#include <cstddef>
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

  // The pool's participants claim blocks of nodes.  Each appends its
  // blocks' forwarding sets to a private blob and records, per block,
  // where they start; set sizes and arc counts go straight to their node's
  // entries (disjoint indices).  After the serial O(n) prefix sum, the
  // stitch copies the blobs into the CSR array block by block, back on the
  // pool: each block's span is disjoint by construction, so no locking.
  // A slot also carries the participant's scratch (skyline workspace plus
  // the local disk set / arc / index buffers), reused across every node
  // it claims.  Claiming balances the per-node cost,
  // which grows with the node's local disk set, without weights.
  constexpr std::size_t kBlock = detail::kRelayBlock;
  // mldcs-analyze:allow(hot-no-alloc): one-shot sweep setup, O(threads)
  std::vector<detail::SlotSets> slot_out(pool.size());
  // mldcs-analyze:allow(hot-no-alloc): one-shot sweep setup, O(nodes)
  std::vector<detail::BlockBegin> block_begin((n - 1) / kBlock + 1);

  pool.parallel_blocks(
      n, kBlock, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
        detail::SlotSets& so = slot_out[slot];
        block_begin[lo / kBlock] = {slot, so.ids.size()};
        for (std::size_t u = lo; u < hi; ++u) {
          const net::NodeId id = static_cast<net::NodeId>(u);
          out.arc_counts_[u] = detail::relay_forwarding_set(g, id, so.scratch);
          const std::vector<net::NodeId>& set = so.scratch.relay_ids;
          so.ids.insert(so.ids.end(), set.begin(), set.end());
          out.offsets_[u + 1] = static_cast<std::uint32_t>(set.size());
        }
      });

  // Serial O(n) spine: the prefix sum over the staged set sizes.
  for (std::size_t i = 0; i < n; ++i) out.offsets_[i + 1] += out.offsets_[i];
  out.ids_.resize(out.offsets_[n]);

  // Parallel stitch, a run of sweep blocks per claim: each sweep block's
  // sets are one contiguous stretch of its slot's blob.
  constexpr std::size_t kStitch = 32 * kBlock;
  pool.parallel_blocks(
      n, kStitch, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t b_lo = lo; b_lo < hi; b_lo += kBlock) {
          const std::size_t b_hi = std::min(hi, b_lo + kBlock);
          const detail::BlockBegin at = block_begin[b_lo / kBlock];
          const auto src = slot_out[at.slot].ids.begin() +
                           static_cast<std::ptrdiff_t>(at.offset);
          std::copy(src, src + (out.offsets_[b_hi] - out.offsets_[b_lo]),
                    out.ids_.begin() + out.offsets_[b_lo]);
        }
      });
  return out;
}

}  // namespace mldcs::bcast
