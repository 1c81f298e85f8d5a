#include "broadcast/all_skylines.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "broadcast/relay_skyline.hpp"
#include "obs/scope.hpp"

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
  // One relay batch over every node, in the calling thread's kept batch
  // (so a warmed-up thread's sweep allocates only its result), then a
  // serial copy into the tight CSR arrays.
  detail::RelayBatch& batch = detail::thread_batch();
  batch.compute(g, std::views::iota(net::NodeId{0}, n), &pool,
                obs::Phase::kNone);
  AllSkylines out;
  out.offsets_.assign(n + 1, 0);
  out.arc_counts_.assign(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    out.offsets_[u + 1] =
        out.offsets_[u] + static_cast<std::uint32_t>(batch.set(u).size());
    out.arc_counts_[u] = batch.arc_count(u);
  }
  out.ids_.reserve(out.offsets_[n]);
  for (std::size_t u = 0; u < n; ++u) {
    const std::span<const net::NodeId> set = batch.set(u);
    out.ids_.insert(out.ids_.end(), set.begin(), set.end());
  }
  return out;
}

}  // namespace mldcs::bcast
