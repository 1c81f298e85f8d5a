// The iterative SkylineWorkspace engine against the recursive baseline and
// the brute-force envelope: randomized equivalence, the degenerate
// scenarios of the invariant-harness PR, and workspace reuse (one workspace
// across many different inputs must behave exactly like a fresh one each
// time).
//
// The bottom-up engine merges a *different* tree than the top-down
// recursion for non-power-of-2 sizes, so against the recursive baseline we
// compare the semantic result (skyline set + radial coverage), while
// against a fresh workspace run — same engine, same tree — arc lists must
// match bit for bit.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/invariants.hpp"
#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "core/skyline_reference.hpp"
#include "core/validate.hpp"
#include "sim/rng.hpp"
#include "support/alloc_guard.hpp"

namespace mldcs::core {
namespace {

/// Spans don't compare; copy for EXPECT_EQ (gtest prints Arc).
std::vector<Arc> arc_vec(std::span<const Arc> arcs) {
  return {arcs.begin(), arcs.end()};
}

/// Workspace engine vs recursive vs brute force (inside the Theorem 3
/// oracle) on one scenario.
void expect_workspace_agrees(const Scenario& sc, const std::string& label) {
  SkylineWorkspace ws;
  const Skyline via_ws = compute_skyline(sc.disks, sc.origin, ws);
  const Skyline rec = compute_skyline_recursive(sc.disks, sc.origin);

  EXPECT_EQ(check_skyline_minimality(via_ws, sc.disks), "") << label;
  EXPECT_LT(max_radial_error(via_ws, sc.disks, 2048), 1e-7) << label;
  EXPECT_EQ(via_ws.skyline_set(), rec.skyline_set()) << label;

  // The allocation-free form returns the same arcs as the Skyline form.
  std::vector<Arc> arcs;
  compute_skyline_arcs(sc.disks, sc.origin, ws, arcs);
  EXPECT_EQ(arcs, arc_vec(via_ws.arcs())) << label;
}

// ---------------------------------------------------------------------------
// Randomized equivalence sweep.

class WorkspaceRandomTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(WorkspaceRandomTest, MatchesRecursiveAndBruteforce) {
  const auto [n, hetero] = GetParam();
  sim::Xoshiro256 rng(static_cast<std::uint64_t>(n) * 7919 + (hetero ? 1 : 0));
  for (int rep = 0; rep < 4; ++rep) {
    const Scenario sc =
        random_local_set(rng, static_cast<std::size_t>(n), hetero);
    expect_workspace_agrees(sc, "n=" + std::to_string(n) +
                                    " hetero=" + std::to_string(hetero) +
                                    " rep=" + std::to_string(rep));
  }
}

// Sizes straddle power-of-2 boundaries on purpose: 3, 5, 9, 17, 33 exercise
// the odd-tail carry of the bottom-up merge schedule.
INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkspaceRandomTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33,
                                         55, 64),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Degenerate configurations (the PR-1 invariant-harness scenarios).

TEST(WorkspaceDegenerateTest, Concentric) {
  expect_workspace_agrees(concentric_set(7), "concentric");
}

TEST(WorkspaceDegenerateTest, Duplicates) {
  expect_workspace_agrees(duplicate_set(6), "duplicates");
}

TEST(WorkspaceDegenerateTest, Dominated) {
  sim::Xoshiro256 rng(99);
  expect_workspace_agrees(dominated_set(rng, 12), "dominated");
}

TEST(WorkspaceDegenerateTest, TangentPair) {
  expect_workspace_agrees(tangent_pair(), "tangent-pair");
}

TEST(WorkspaceDegenerateTest, Collinear) {
  expect_workspace_agrees(collinear_set(9), "collinear");
}

TEST(WorkspaceDegenerateTest, Figure41) {
  expect_workspace_agrees(figure41_configuration(8), "figure-4.1");
}

TEST(WorkspaceDegenerateTest, Figure32Like) {
  expect_workspace_agrees(figure32_like_configuration(), "figure-3.2");
}

TEST(WorkspaceDegenerateTest, EmptySet) {
  SkylineWorkspace ws;
  const Skyline sky = compute_skyline({}, {0, 0}, ws);
  EXPECT_TRUE(sky.empty());
  std::vector<Arc> arcs{{0.0, 1.0, 0}};  // must be cleared
  compute_skyline_arcs({}, {0, 0}, ws, arcs);
  EXPECT_TRUE(arcs.empty());
}

TEST(WorkspaceDegenerateTest, SingleDisk) {
  SkylineWorkspace ws;
  const std::vector<geom::Disk> one{{{0.2, 0.1}, 1.0}};
  const Skyline sky = compute_skyline(one, {0, 0}, ws);
  ASSERT_EQ(sky.arc_count(), 1u);
  EXPECT_EQ(sky.skyline_set(), (std::vector<std::size_t>{0}));
}

// ---------------------------------------------------------------------------
// Workspace reuse: one workspace through 100 different inputs — growing,
// shrinking, degenerate — must match a fresh computation every time.

TEST(WorkspaceReuseTest, HundredInputsThroughOneWorkspace) {
  SkylineWorkspace shared;
  sim::Xoshiro256 rng(0xAB5E55ED);
  std::vector<Arc> reused_arcs;
  for (int i = 0; i < 100; ++i) {
    // Sizes jump around so the workspace alternately grows and is larger
    // than needed; every 10th input is degenerate.
    const std::size_t n = 1 + (static_cast<std::size_t>(i * 13) % 48);
    const Scenario sc = (i % 10 == 7)
                            ? duplicate_set(n)
                            : random_local_set(rng, n, i % 2 == 0);
    const Skyline fresh = [&] {
      SkylineWorkspace one_shot;
      return compute_skyline(sc.disks, sc.origin, one_shot);
    }();
    const Skyline reused = compute_skyline(sc.disks, sc.origin, shared);
    EXPECT_EQ(arc_vec(reused.arcs()), arc_vec(fresh.arcs())) << "input " << i;

    compute_skyline_arcs(sc.disks, sc.origin, shared, reused_arcs);
    EXPECT_EQ(reused_arcs, arc_vec(fresh.arcs())) << "input " << i;
  }
}

TEST(WorkspaceReuseTest, ReserveAndClearPreserveResults) {
  sim::Xoshiro256 rng(0x5EED);
  const Scenario sc = random_local_set(rng, 40, true);
  const Skyline expected = compute_skyline_bruteforce(sc.disks, sc.origin);

  SkylineWorkspace ws;
  ws.reserve(256);  // oversized up-front reservation
  EXPECT_EQ(compute_skyline(sc.disks, sc.origin, ws).skyline_set(),
            expected.skyline_set());
}

/// The amortized-zero contract of workspace reuse, measured with the
/// shared allocation probe (tests/support/): after one warm pass over a
/// set of inputs, re-running the allocation-free entry point over the same
/// inputs must not touch the heap at all.  This is the dynamic cross-check
/// of the hot-no-alloc static rule on compute_skyline_arcs
/// (tools/analyze/), which cannot observe capacity high-water marks.
TEST(WorkspaceReuseTest, WarmedUpReuseIsAllocationFree) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  if (kInvariantChecksEnabled) {
    GTEST_SKIP() << "invariant diagnostics allocate by design (ALLOC_OK)";
  }
  sim::Xoshiro256 rng(0xA110C);
  std::vector<Scenario> inputs;
  for (std::size_t i = 0; i < 8; ++i) {
    inputs.push_back(random_local_set(rng, 20 + 10 * i, i % 2 == 0));
  }

  SkylineWorkspace ws;
  std::vector<Arc> arcs;
  for (const Scenario& sc : inputs) {
    compute_skyline_arcs(sc.disks, sc.origin, ws, arcs);
  }

  const test::AllocGuard guard;
  for (int round = 0; round < 5; ++round) {
    for (const Scenario& sc : inputs) {
      compute_skyline_arcs(sc.disks, sc.origin, ws, arcs);
    }
  }
  EXPECT_EQ(guard.count(), 0u)
      << "warmed-up compute_skyline_arcs allocated on reuse";
}

/// reserve(n) is a bound, not a warm-up: a fresh workspace reserved for n
/// disks makes its first call on a set of n disks without allocating.
/// The shapes are ones whose levels outgrow a few arcs per disk: the
/// Figure 4.1 construction, the narrow band and a collinear chain.
TEST(WorkspaceReuseTest, ReserveBoundsTheFirstCall) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  if (kInvariantChecksEnabled) {
    GTEST_SKIP() << "invariant diagnostics allocate by design (ALLOC_OK)";
  }
  sim::Xoshiro256 rng(0xB0C0);
  const Scenario shapes[] = {figure41_configuration(8),
                             narrow_band_set(rng, 64), collinear_set(256)};
  std::vector<Arc> arcs;
  {
    // The process's first call registers the engine's telemetry.
    SkylineWorkspace warm;
    compute_skyline_arcs(shapes[0].disks, shapes[0].origin, warm, arcs);
  }
  for (const Scenario& sc : shapes) {
    SkylineWorkspace ws;
    ws.reserve(sc.disks.size());
    arcs.reserve(2 * sc.disks.size());
    const test::AllocGuard guard;
    compute_skyline_arcs(sc.disks, sc.origin, ws, arcs);
    EXPECT_EQ(guard.count(), 0u)
        << "a workspace reserved for " << sc.disks.size()
        << " disks allocated on its first call";
  }
}

}  // namespace
}  // namespace mldcs::core
