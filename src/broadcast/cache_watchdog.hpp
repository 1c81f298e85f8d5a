#pragma once

/// \file cache_watchdog.hpp
/// Binds the generic obs::ConsistencyWatchdog to a forwarding-set cache
/// (`SkylineCache` or `ShardedSkylineCache`): the reference function
/// recomputes one relay's skyline forwarding set from scratch
/// (relay_skyline.hpp — the same inner loop the cache itself runs) on the
/// graph holding that relay's full 1-hop set (`cache.graph_of(u)`; for the
/// sharded cache, its owner shard's region graph, so every check re-proves
/// the halo guarantee), and the cached function reads the slotted store.
/// Any divergence means the dirty rule, the slot patching, or the store
/// itself broke.
///
/// Usage (one line per mobility step):
///
///   auto wd = bcast::make_cache_watchdog(cache, {.period=16, .samples=8});
///   ...
///   cache.update(dyn.apply(...));   // or sharded_cache.step(...)
///   wd.on_step(cache.last_update_event());
///   ...
///   if (!wd.clean()) alarm(wd.last_mismatched_relays());

#include "broadcast/sharded_cache.hpp"
#include "broadcast/skyline_cache.hpp"
#include "obs/watchdog.hpp"

namespace mldcs::bcast {

/// A watchdog auditing `cache` (a SkylineCache or ShardedSkylineCache, the
/// two instantiations provided) against from-scratch recomputation.  The
/// cache and the graphs it reads must outlive the returned watchdog.
template <typename Cache>
[[nodiscard]] obs::ConsistencyWatchdog make_cache_watchdog(
    const Cache& cache, obs::ConsistencyWatchdog::Config config = {});

}  // namespace mldcs::bcast
