#pragma once

/// \file montecarlo.hpp
/// Trial runner for the Chapter 5 experiments: run `trials` independent
/// repetitions of a seeded experiment, in parallel, collecting per-trial
/// values deterministically (trial k always uses derive_seed(seed, k),
/// regardless of the thread schedule).

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::sim {

/// Run `trials` repetitions of `experiment(rng, trial_index)` and return the
/// per-trial results in trial order.  Each trial gets an independent,
/// deterministic RNG stream.  Statically dispatched on the callable; the
/// result type T is deduced from the experiment's return type.
template <typename F,
          typename T = std::remove_cvref_t<
              std::invoke_result_t<F&, Xoshiro256&, std::size_t>>>
[[nodiscard]] std::vector<T> run_trials(std::uint64_t seed, std::size_t trials,
                                        F&& experiment,
                                        std::size_t threads = 0) {
  std::vector<T> results(trials);
  parallel_for(
      trials,
      [&](std::size_t k) {
        Xoshiro256 rng(derive_seed(seed, k));
        results[k] = experiment(rng, k);
      },
      threads);
  return results;
}

/// Aggregate a vector of doubles into RunningStats.
[[nodiscard]] inline RunningStats summarize(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s;
}

}  // namespace mldcs::sim
