// Dynamic verification of the MLDCS_HOT_PATH / MLDCS_NO_LOCK annotations:
// the runtime half of the discipline whose static half is
// tools/analyze/mldcs_analyze.py.  The static rules cannot see through
// constructors, default member initializers (telemetry registration), or
// std::function type erasure (ThreadPool dispatch); these tests run the
// annotated paths warmed up and assert the steady state performs zero
// allocations and zero mutex acquisitions, using the interposers in
// tests/support/.
//
// Warm-up matters everywhere here: the amortized-zero contract says scratch
// *grows to a high-water mark, then stops* — the first pass over a topology
// allocates (and telemetry registration takes its once-per-process locks);
// every later pass must be silent.

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/broadcast_sim.hpp"
#include "broadcast/self_pruning.hpp"
#include "core/invariants.hpp"
#include "core/skyline_dc.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "obs/event_log.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "support/alloc_guard.hpp"
#include "support/lock_guard.hpp"
#include "support/pool_tasks.hpp"

namespace mldcs {
namespace {

using test::AllocGuard;
using test::LockGuard;
using test::pool_tasks;

std::vector<geom::Disk> random_disks(std::size_t n, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  std::vector<geom::Disk> disks;
  disks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec2 u{rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)};
    const double need = std::sqrt(u.x * u.x + u.y * u.y);
    disks.push_back({u, need + rng.uniform(0.1, 4.0)});
  }
  return disks;
}

// --- Probe self-checks: the interposers must actually count -----------------

TEST(InterposerProbe, CountsHeapAllocations) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  AllocGuard guard;
  std::vector<int>* v = new std::vector<int>(128);
  EXPECT_GE(guard.count(), 1u);
  delete v;
}

TEST(InterposerProbe, CountsMutexAcquisitions) {
  if (!test::lock_probe_active()) GTEST_SKIP() << "pthreads owned by TSan";
  std::mutex mu;
  LockGuard guard;
  {
    const std::lock_guard<std::mutex> lock(mu);
  }
  EXPECT_GE(guard.count(), 1u);
}

// --- compute_skyline_arcs: MLDCS_HOT_PATH + MLDCS_NO_LOCK -------------------

TEST(HotPathGuard, SkylineArcsSteadyStateAllocFree) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  if (core::kInvariantChecksEnabled) {
    GTEST_SKIP() << "invariant diagnostics allocate by design (ALLOC_OK)";
  }
  core::SkylineWorkspace ws;
  std::vector<core::Arc> arcs;
  const std::vector<geom::Disk> disks = random_disks(96, 7);

  // Warm-up: scratch and telemetry reach steady state.
  for (int i = 0; i < 3; ++i) {
    core::compute_skyline_arcs(disks, {0.0, 0.0}, ws, arcs);
  }

  AllocGuard guard;
  for (int i = 0; i < 50; ++i) {
    core::compute_skyline_arcs(disks, {0.0, 0.0}, ws, arcs);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "MLDCS_HOT_PATH contract: warmed-up compute_skyline_arcs must not "
         "allocate";
}

TEST(HotPathGuard, SkylineArcsSteadyStateLockFree) {
  if (!test::lock_probe_active()) GTEST_SKIP() << "pthreads owned by TSan";
  core::SkylineWorkspace ws;
  std::vector<core::Arc> arcs;
  const std::vector<geom::Disk> disks = random_disks(96, 11);

  // Warm-up includes the once-per-process telemetry registration locks.
  for (int i = 0; i < 3; ++i) {
    core::compute_skyline_arcs(disks, {0.0, 0.0}, ws, arcs);
  }

  LockGuard guard;
  for (int i = 0; i < 50; ++i) {
    core::compute_skyline_arcs(disks, {0.0, 0.0}, ws, arcs);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "MLDCS_NO_LOCK contract: warmed-up compute_skyline_arcs must not "
         "take a mutex";
}

// Growing inputs still allocate (scratch high-water mark moves): the guard
// must see that, or the zero-readings above prove nothing.
TEST(HotPathGuard, ColdWorkspaceAllocatesAndGuardSeesIt) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  core::SkylineWorkspace ws;
  std::vector<core::Arc> arcs;
  const std::vector<geom::Disk> disks = random_disks(96, 13);

  AllocGuard guard;
  core::compute_skyline_arcs(disks, {0.0, 0.0}, ws, arcs);
  EXPECT_GT(guard.count(), 0u)
      << "a cold workspace must grow (otherwise the probe is dead)";
}

// --- simulate_broadcast: skyline sets through the shared relay loop --------

/// The static_1k deployment: ~1000 nodes, radii U[1,2], degree 36.8.
net::DiskGraph static_1k_graph() {
  net::DeploymentParams p;
  p.model = net::RadiusModel::kUniform;
  p.target_avg_degree = 36.8;
  sim::Xoshiro256 rng(1);
  return net::generate_graph(p, rng);
}

// Not an annotated hot path, but a skyline broadcast must allocate no more
// than a flooding one: its per-call DeliveryScratch.  Each thread keeps its
// relay batch across broadcasts, the batch's buffers only grow (its closure
// keeps the sets at the graph's CSR offsets, so nothing grows inside the
// dispatch), and the pool's queue allocates nothing once warm, so from the
// third broadcast on every one allocates exactly that, at any pool size and
// under any schedule — never per transmitter (a LocalView, a receiver copy,
// a result vector), per closure, or per pool task.
TEST(HotPathGuard, SimulateBroadcastAllocFree) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  if (core::kInvariantChecksEnabled) {
    GTEST_SKIP() << "invariant diagnostics allocate by design (ALLOC_OK)";
  }
  const net::DiskGraph g = static_1k_graph();
  obs::events_stop();
  test::start_workers();

  (void)bcast::simulate_broadcast(g, 0, bcast::Scheme::kFlooding);
  AllocGuard flood_guard;
  (void)bcast::simulate_broadcast(g, 0, bcast::Scheme::kFlooding);
  const std::uint64_t per_call = flood_guard.count();
  RecordProperty("flooding_allocations", static_cast<int>(per_call));

  // The self-pruned hybrid runs the same loop, so it is held to the same
  // count.
  for (const bool pruned : {false, true}) {
    const auto broadcast = [&] {
      return pruned ? bcast::simulate_pruned_broadcast(g, 0,
                                                       bcast::Scheme::kSkyline)
                    : bcast::simulate_broadcast(g, 0, bcast::Scheme::kSkyline);
    };
    // Warm-up: telemetry registration and the thread-local relay batch.
    for (int i = 0; i < 2; ++i) (void)broadcast();

    const std::uint64_t tasks_before = pool_tasks();
    for (int i = 0; i < 20; ++i) {
      AllocGuard guard;
      const bcast::BroadcastResult r = broadcast();
      const std::uint64_t allocs = guard.count();
      EXPECT_GE(r.transmissions, 400u);
      EXPECT_EQ(allocs, per_call)
          << (pruned ? "pruned" : "plain") << " broadcast " << i << ", over "
          << r.transmissions << " transmissions";
      if (i == 0) {
        RecordProperty(pruned ? "pruned_allocations" : "allocations",
                       static_cast<int>(allocs));
      }
    }
    // With more than one worker the closure's sets must have been
    // computed on the pool, so the count above covers that path.
    if (sim::default_pool().size() > 1) {
      EXPECT_GT(pool_tasks(), tasks_before) << (pruned ? "pruned" : "plain");
    }
  }
}

// --- DiskGraph::build: count and fill passes without per-chunk scratch -----

// Builds at the paper's density, held to the 26 allocations the serial
// 999-node build made: 999 and ~5700 nodes, both past
// DiskGraph::kParallelBuildNodes, so on the pool when it has more than one
// worker.  Both passes visit the grid's candidates in place, so no block
// allocates; a candidate vector per block and pass would add allocations to
// every build.
TEST(HotPathGuard, DiskGraphBuildAllocations) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  for (const double side : {12.5, 30.0}) {
    net::DeploymentParams p;
    p.model = net::RadiusModel::kUniform;
    p.target_avg_degree = 36.8;
    p.side = side;
    sim::Xoshiro256 rng(1);
    const std::vector<net::Node> nodes = net::generate_deployment(p, rng);
    for (int i = 0; i < 2; ++i) (void)net::DiskGraph::build(nodes);  // warm-up

    std::vector<net::Node> copy = nodes;
    const std::uint64_t tasks_before = pool_tasks();
    AllocGuard guard;
    const net::DiskGraph g = net::DiskGraph::build(std::move(copy));
    const std::uint64_t allocs = guard.count();
    const std::string where = std::to_string(nodes.size()) + " nodes";
    RecordProperty("allocations_n" + std::to_string(nodes.size()),
                   static_cast<int>(allocs));
    EXPECT_GT(g.edge_count(), 0u) << where;
    EXPECT_LE(allocs, 26u) << where;
    ASSERT_GE(nodes.size(), net::DiskGraph::kParallelBuildNodes) << where;
    if (sim::default_pool().size() > 1) {
      EXPECT_GT(pool_tasks(), tasks_before) << where << " should fan out";
    }
  }
}

// Delivery over sets the caller already holds: with the scratch kept, only
// the first broadcast grows it; repeated ones allocate nothing.
TEST(HotPathGuard, DeliverWithKeptScratchAllocFree) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  const net::DiskGraph g = static_1k_graph();
  sim::ThreadPool pool(1);
  const bcast::AllSkylines all = bcast::compute_all_skylines(g, pool);
  const auto sets = [&](net::NodeId u) { return all.forwarding_set(u); };
  obs::events_stop();

  for (const bcast::ReceptionModel model :
       {bcast::ReceptionModel::kBidirectionalLink,
        bcast::ReceptionModel::kPhysicalCoverage}) {
    bcast::DeliveryScratch scratch;
    const auto broadcast = [&] {
      return bcast::deliver(g, 0, bcast::Scheme::kSkyline, sets, model,
                            scratch);
    };
    const bcast::BroadcastResult first = broadcast();
    AllocGuard guard;
    for (int i = 0; i < 3; ++i) {
      const bcast::BroadcastResult r = broadcast();
      EXPECT_EQ(r.transmissions, first.transmissions);
    }
    EXPECT_EQ(guard.count(), 0u) << "model " << static_cast<int>(model);
    EXPECT_GE(first.transmissions, 400u);
  }
}

// --- DynamicDiskGraph::apply: adjacency lists regrow with slack ------------

// The perf_suite low_speed regime on the ~1000-node paper deployment: most
// nodes move a little every step, so node degrees pass their old maxima all
// the time.  Lists that regrew to their exact size reallocated on nearly
// every such step; with slack the warmed-up apply stays under a handful of
// allocations, the pool's dispatch included.  The warm-up outlasts random
// waypoint's initial density drift (border nodes head inward, and some
// degrees grow 5x over the first ~100 steps): over steps 200-250 the exact
// rule still makes ~22 allocations per step, slack ~2.5.
TEST(HotPathGuard, DynamicGraphApplyRegrowsListsWithSlack) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  net::DeploymentParams p;
  p.model = net::RadiusModel::kUniform;
  p.target_avg_degree = 36.8;
  net::WaypointParams wp;
  wp.v_min = 0.02;
  wp.v_max = 0.1;
  wp.pause = 2.0;
  wp.steady_state_init = true;
  sim::Xoshiro256 rng(0x5EEDC0DEULL);
  net::MobileNetwork mobile(p, wp, rng);
  net::DynamicDiskGraph dyn{mobile.nodes()};
  obs::events_stop();

  for (int t = 0; t < 200; ++t) {
    mobile.step(1.0, rng);
    (void)dyn.apply(mobile.nodes(), mobile.moved_last_step());
  }
  constexpr int kSteps = 50;
  std::uint64_t allocs = 0;
  std::size_t movers = 0;
  for (int t = 0; t < kSteps; ++t) {
    mobile.step(1.0, rng);
    const AllocGuard guard;
    movers += dyn.apply(mobile.nodes(), mobile.moved_last_step()).moved.size();
    allocs += guard.count();
  }
  RecordProperty("allocations", static_cast<int>(allocs));
  EXPECT_GE(movers, kSteps * net::DynamicDiskGraph::kParallelApplyMovers)
      << "the regime should run most steps on the pool";
  EXPECT_LE(static_cast<double>(allocs) / kSteps, 5.0)
      << allocs << " allocations over " << kSteps << " steps";
}

}  // namespace
}  // namespace mldcs
