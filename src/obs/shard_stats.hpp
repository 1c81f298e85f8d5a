#pragma once

/// \file shard_stats.hpp
/// Process-wide per-shard load snapshot hook: the bridge between the
/// sharded engine (net/broadcast, which owns the numbers) and the
/// operational surfaces in this library (obs/introspect.hpp `/shards`,
/// obs/blackbox.hpp heartbeat frames) that want to read them without
/// knowing the engine's types.
///
/// obs sits below net/broadcast in the layering, so the dependency is
/// inverted callback-style (the same shape as obs/watchdog.hpp):
/// `net::ShardedEngine` installs a provider in its constructor and clears
/// it in its destructor; readers call `shard_stats()` and get whatever the
/// current provider publishes — an empty table when no sharded engine is
/// live.  The provider must be safe to call from a foreign thread at any
/// time: the engine satisfies this by publishing into per-shard relaxed
/// atomics at the end of each step (never by touching step-mutable state),
/// so a read costs a handful of relaxed loads and zero locks on the
/// engine's side.
///
/// Ownership is token-based (`owner`): tests and benches build many
/// engines, and a destructor must only deregister the provider it itself
/// installed, never a successor's.
///
/// The numbers come from the engine, not the metric registry.

#include <cstdint>
#include <functional>
#include <vector>

namespace mldcs::obs {

/// One shard's load summary, as of the engine's most recent step.
struct ShardStat {
  std::uint32_t shard = 0;
  std::uint64_t owned = 0;            ///< nodes owned (positioned in tile)
  std::uint64_t halo = 0;             ///< resident but owned elsewhere
  std::uint64_t incoming = 0;         ///< movers routed to it last step
  std::uint64_t dirty = 0;            ///< relays recomputed last step
  std::uint64_t step_ns = 0;          ///< parallel-phase duration last step
  std::uint64_t barrier_wait_ns = 0;  ///< idle time behind the slowest shard
};

/// Fills `out` (cleared first) with one entry per shard and returns the
/// engine's step count at publish time.
using ShardStatsFn = std::function<std::uint64_t(std::vector<ShardStat>&)>;

/// Install `fn` as the process-wide provider on behalf of `owner` (any
/// stable pointer identifying the installer; the engine passes `this`).
/// A later install overwrites an earlier one — last engine wins.
void set_shard_stats_provider(const void* owner, ShardStatsFn fn);

/// Remove the provider, but only if `owner` still owns it (a no-op when a
/// later engine has already replaced it).
void clear_shard_stats_provider(const void* owner);

/// Read the current provider into `out`; returns the provider's step
/// count, or 0 with `out` empty when no provider is installed.
std::uint64_t shard_stats(std::vector<ShardStat>& out);

}  // namespace mldcs::obs
