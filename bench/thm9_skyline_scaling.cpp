/// Theorem 9 / Lemma 8 — complexity benchmark: the divide-and-conquer
/// Skyline runs in O(n log n) while the incremental and brute-force
/// references are O(n^2)+; skylines never exceed 2n arcs.
///
/// Uses google-benchmark; BigO complexity fits are reported directly.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "core/skyline_reference.hpp"
#include "sim/rng.hpp"

namespace {

using mldcs::core::Scenario;

/// Random local sets with radii U[1, 1.2]: the input of the quadratic
/// references.
Scenario make_scenario(std::size_t n) {
  mldcs::sim::Xoshiro256 rng(0xF1C5CA1EULL + n);
  return mldcs::core::random_local_set(rng, n, true, 1.0, 1.2);
}

/// The narrow band (core::narrow_band_set): nearly every disk passes the
/// sector-bound prefilter and owns an arc, so the divide-and-conquer
/// benches time Merge, not the linear prefilter pass.
Scenario merge_scenario(std::size_t n) {
  mldcs::sim::Xoshiro256 rng(0xF1C5CA1EULL + n);
  return mldcs::core::narrow_band_set(rng, n);
}

void BM_SkylineDivideAndConquer(benchmark::State& state) {
  const Scenario sc = merge_scenario(static_cast<std::size_t>(state.range(0)));
  std::size_t arcs = 0;
  for (auto _ : state) {
    const auto sky = mldcs::core::compute_skyline(sc.disks, sc.origin);
    arcs = sky.arc_count();
    benchmark::DoNotOptimize(arcs);
  }
  // Disks the sector-bound prefilter lets into the merge, counted in one
  // untimed call.
  mldcs::core::MergeStats stats;
  (void)mldcs::core::compute_skyline(sc.disks, sc.origin, &stats);
  state.SetComplexityN(state.range(0));
  state.counters["arcs"] = static_cast<double>(arcs);
  state.counters["arcs_per_disk"] =
      static_cast<double>(arcs) / static_cast<double>(state.range(0));
  state.counters["survivors"] = static_cast<double>(stats.survivors);
}
BENCHMARK(BM_SkylineDivideAndConquer)
    ->RangeMultiplier(2)
    ->Range(16, 8192)
    ->Complexity(benchmark::oNLogN);

void BM_SkylineIncremental(benchmark::State& state) {
  const Scenario sc = make_scenario(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto sky =
        mldcs::core::compute_skyline_incremental(sc.disks, sc.origin);
    benchmark::DoNotOptimize(sky.arc_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SkylineIncremental)
    ->RangeMultiplier(2)
    ->Range(16, 2048)
    ->Complexity(benchmark::oNSquared);

void BM_SkylineBruteForce(benchmark::State& state) {
  const Scenario sc = make_scenario(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto sky =
        mldcs::core::compute_skyline_bruteforce(sc.disks, sc.origin);
    benchmark::DoNotOptimize(sky.arc_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SkylineBruteForce)
    ->RangeMultiplier(4)
    ->Range(16, 256)  // O(n^2 log n) breakpoints x O(n) argmax: keep small
    ->Complexity();

void BM_MergeWorkPerLevel(benchmark::State& state) {
  // Lemma 8 in operation: total Merge spans across the recursion is
  // O(n log n); reported as a counter for the EXPERIMENTS.md table.
  const Scenario sc = merge_scenario(static_cast<std::size_t>(state.range(0)));
  mldcs::core::MergeStats stats;
  for (auto _ : state) {
    stats = {};
    const auto sky = mldcs::core::compute_skyline(sc.disks, sc.origin, &stats);
    benchmark::DoNotOptimize(sky.arc_count());
  }
  state.SetComplexityN(state.range(0));
  state.counters["merge_spans"] = static_cast<double>(stats.spans);
  state.counters["spans_per_n"] =
      static_cast<double>(stats.spans) / static_cast<double>(state.range(0));
  state.counters["survivors"] = static_cast<double>(stats.survivors);
}
BENCHMARK(BM_MergeWorkPerLevel)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity(benchmark::oNLogN);

}  // namespace

BENCHMARK_MAIN();
