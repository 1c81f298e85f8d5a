// Runtime verification of the sharded hot loop's MLDCS_HOT_PATH /
// MLDCS_NO_LOCK annotations, compiled into the hot_path_guard_test
// binary (which owns the alloc/lock interposers).  A one-worker pool
// runs parallel_blocks inline on the caller thread — no task, no latch —
// so the interposer counters see exactly what one shard's
// step executes: the region-graph apply, the dirty rule, and the
// recompute/store path.  After warm-up, hover steps (a full mover hint
// at unchanged positions, the worst case for the classify/rebucket/drift
// machinery) must allocate nothing; steps with real motion must still
// take no mutex, which is the "zero cross-shard locking" claim made
// observable — including with tracing armed, when every obs::Scope on
// the path records a span.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "broadcast/sharded_cache.hpp"
#include "net/mobility.hpp"
#include "net/sharded_engine.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "support/alloc_guard.hpp"
#include "support/lock_guard.hpp"

namespace mldcs::net {
namespace {

using test::AllocGuard;
using test::LockGuard;

struct ShardedFixture {
  sim::Xoshiro256 rng{0xCAFE5ULL};
  DeploymentParams p;
  WaypointParams wp;
  net::MobileNetwork mobile;
  sim::ThreadPool pool{1};
  ShardedEngine engine;
  bcast::ShardedSkylineCache cache;

  static DeploymentParams params() {
    DeploymentParams p;
    p.model = RadiusModel::kUniform;
    p.target_avg_degree = 8.0;
    return p;
  }
  static WaypointParams motion() {
    WaypointParams wp;
    wp.v_min = 0.05;
    wp.v_max = 0.2;
    wp.pause = 1.0;
    return wp;
  }
  static ShardedEngine::Config config() {
    ShardedEngine::Config c;
    c.shards = 4;
    c.deployment = {{0.0, 0.0}, {12.5, 12.5}};
    return c;
  }

  ShardedFixture()
      : p(params()),
        wp(motion()),
        mobile(p, wp, rng),
        engine(std::vector<Node>(mobile.nodes().begin(),
                                 mobile.nodes().end()),
               pool, config()),
        cache(engine) {}

  void warm(int steps) {
    // Real motion: grows every scratch high-water mark (grid queries,
    // skyline workspaces, slot stores) and performs the once-per-process
    // telemetry registrations.
    for (int i = 0; i < steps; ++i) {
      mobile.step(1.0, rng);
      cache.step(mobile.nodes(), mobile.moved_last_step());
    }
  }

  std::vector<NodeId> all_ids() const {
    std::vector<NodeId> ids(engine.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<NodeId>(i);
    }
    return ids;
  }
};

TEST(ShardedHotPath, HoverStepsSteadyStateAllocFree) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  ShardedFixture f;
  f.warm(8);
  // Hover: every node hinted as moved, nobody actually moved.  The step
  // still classifies all movers, rebuckets them, re-derives adjacency,
  // and runs the drift gate for each — with nothing dirty, nothing may
  // allocate.
  const std::vector<Node> frozen(f.mobile.nodes().begin(),
                                 f.mobile.nodes().end());
  const std::vector<NodeId> hint = f.all_ids();
  f.cache.step(frozen, hint);  // warm the hover path's own high-water mark

  AllocGuard guard;
  for (int i = 0; i < 20; ++i) {
    f.cache.step(frozen, hint);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "MLDCS_HOT_PATH contract: a warmed sharded step with no dirty "
         "relays must not allocate";
  EXPECT_EQ(f.cache.last_dirty_count(), 0u);
}

TEST(ShardedHotPath, RealMotionStepsTakeNoMutex) {
  if (!test::lock_probe_active()) GTEST_SKIP() << "pthreads owned by TSan";
  ShardedFixture f;
  f.warm(8);

  LockGuard guard;
  for (int i = 0; i < 20; ++i) {
    f.mobile.step(1.0, f.rng);
    f.cache.step(f.mobile.nodes(), f.mobile.moved_last_step());
  }
  EXPECT_EQ(guard.count(), 0u)
      << "MLDCS_NO_LOCK contract: shard updates synchronize only at the "
         "pool barrier (inline at one worker) — no mutex in the loop";
  EXPECT_GT(f.cache.recompute_count(), 0u);
}

// Armed tracing must not break either contract: span rings are allocated
// at trace_start / thread registration, so a warmed step's scopes (cache
// update, engine step, shard step, halo exchange, graph apply, recompute,
// commit) only store into preallocated slots.  Real motion still grows
// engine scratch now and then, so its allocation count is compared with
// a disarmed twin run over the identical motion; hover steps allocate
// nothing at all.
struct StepCost {
  std::uint64_t locks = 0;
  std::uint64_t allocs = 0;
  std::uint64_t hover_allocs = 0;
};

StepCost measure_steps(bool armed, std::string* trace_out) {
  obs::trace_stop();
  obs::trace_clear();
  if (armed) obs::trace_start();
  ShardedFixture f;
  f.warm(8);
  StepCost cost;
  for (int i = 0; i < 20; ++i) {
    f.mobile.step(1.0, f.rng);
    const LockGuard lock_guard;
    const AllocGuard alloc_guard;
    f.cache.step(f.mobile.nodes(), f.mobile.moved_last_step());
    cost.locks += lock_guard.count();
    cost.allocs += alloc_guard.count();
  }
  const std::vector<Node> frozen(f.mobile.nodes().begin(),
                                 f.mobile.nodes().end());
  const std::vector<NodeId> hint = f.all_ids();
  f.cache.step(frozen, hint);
  const AllocGuard hover_guard;
  for (int i = 0; i < 5; ++i) f.cache.step(frozen, hint);
  cost.hover_allocs = hover_guard.count();
  EXPECT_GT(f.cache.recompute_count(), 0u);
  obs::trace_stop();
  std::ostringstream trace;
  obs::write_trace_json(trace);
  if (trace_out != nullptr) *trace_out = trace.str();
  return cost;
}

TEST(ShardedHotPath, ArmedTraceStepsTakeNoMutexAndAllocateNothing) {
  const StepCost disarmed = measure_steps(false, nullptr);
  std::string trace;
  const StepCost armed = measure_steps(true, &trace);

  if (test::lock_probe_active()) {
    EXPECT_EQ(armed.locks, 0u)
        << "armed scopes must not lock inside the shard barrier";
  }
  if (test::alloc_probe_active()) {
    EXPECT_EQ(armed.allocs, disarmed.allocs)
        << "armed scopes must not allocate after warm-up";
    EXPECT_EQ(armed.hover_allocs, 0u);
  }
  for (const char* name : {"\"cache_update\"", "\"engine_step\"",
                           "\"shard_step\"", "\"graph_apply\"",
                           "\"cache_recompute\""}) {
    EXPECT_NE(trace.find(name), std::string::npos) << name;
  }
}

// The cold path must register on the probe, or the zeros above are
// meaningless: constructing the engine + cache performs the full-sweep
// recomputation and every initial store growth.
TEST(ShardedHotPath, ColdConstructionAllocatesAndGuardSeesIt) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  AllocGuard guard;
  ShardedFixture f;
  EXPECT_GT(guard.count(), 0u)
      << "cold construction must grow scratch (otherwise the probe is "
         "dead)";
}

}  // namespace
}  // namespace mldcs::net
