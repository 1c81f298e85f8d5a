#pragma once

/// \file pool_tasks.hpp
/// Did a call reach the pool?  Tests that check a library stage fanned out
/// (or stayed inline) compare this count before and after the call.  Also
/// a warm-up for allocation probes over pooled code: start_workers.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "obs/telemetry.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::test {

/// Tasks every pool has run so far: the `pool.tasks_executed` counter.  A
/// task counts itself before its dispatch returns, so a call that has
/// returned is fully counted.
inline std::uint64_t pool_tasks() {
  return obs::registry().counter("pool.tasks_executed").value();
}

/// Returns once `pool` has started its workers and every one of them (the
/// size() - 1 threads beside the caller) has run a task: one dispatch of
/// size() blocks that wait for each other, so no participant can claim a
/// second block.  A worker registers its thread (which allocates) when it
/// starts, so an allocation probe over pooled code warms up with this
/// first.  Call it from outside the pool.
inline void start_workers(sim::ThreadPool& pool = sim::default_pool()) {
  std::atomic<std::size_t> arrived{0};
  pool.parallel_for(pool.size(), [&](std::size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < pool.size()) std::this_thread::yield();
  });
}

}  // namespace mldcs::test
