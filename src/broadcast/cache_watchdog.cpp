#include "broadcast/cache_watchdog.hpp"

#include <memory>
#include <vector>

#include "broadcast/relay_skyline.hpp"

namespace mldcs::bcast {

template <typename Cache>
obs::ConsistencyWatchdog make_cache_watchdog(
    const Cache& cache, obs::ConsistencyWatchdog::Config config) {
  // One shared scratch set per watchdog: checks are serial and rare
  // (samples per period), so a single workspace amortizes across them.
  auto scratch = std::make_shared<detail::RelayScratch>();
  auto reference = [&cache, scratch](std::uint32_t u) {
    detail::relay_forwarding_set(cache.graph_of(u), u, *scratch);
    return scratch->relay_ids;
  };
  auto cached = [&cache](std::uint32_t u) {
    const auto set = cache.forwarding_set(u);
    return std::vector<std::uint32_t>(set.begin(), set.end());
  };
  return {cache.size(), std::move(reference), std::move(cached), config};
}

template obs::ConsistencyWatchdog make_cache_watchdog(
    const SkylineCache&, obs::ConsistencyWatchdog::Config);
template obs::ConsistencyWatchdog make_cache_watchdog(
    const ShardedSkylineCache&, obs::ConsistencyWatchdog::Config);

}  // namespace mldcs::bcast
