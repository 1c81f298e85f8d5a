#pragma once

/// \file pool_tasks.hpp
/// Did a call reach the pool?  Tests that check a library stage fanned out
/// (or stayed inline) compare this count before and after the call.

#include <cstdint>

#include "obs/telemetry.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::test {

/// Tasks every pool has run so far: the `pool.tasks_executed` counter,
/// which counts only with telemetry on (obs::kTelemetryEnabled).  A worker
/// counts a task after the dispatch that handed it out has returned, so
/// this first waits for `pool` (by default the library's own) to go idle.
inline std::uint64_t pool_tasks(sim::ThreadPool& pool = sim::default_pool()) {
  pool.wait_idle();
  return obs::registry().counter("pool.tasks_executed").value();
}

}  // namespace mldcs::test
