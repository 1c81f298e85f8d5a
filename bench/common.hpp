#pragma once

/// \file common.hpp
/// Shared driver for the Chapter 5 figure benches: run the paper's
/// simulation protocol (random point sets over the 12.5 x 12.5 square,
/// source u at the center, 200 trials) and collect the forwarding-set size
/// of u under each scheme.

#include <array>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "broadcast/forwarding.hpp"
#include "core/skyline_dc.hpp"
#include "net/topology.hpp"
#include "sim/histogram.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::bench {

/// The paper's trial count (Section 5.1: "200 random point sets").
inline constexpr std::size_t kTrials = 200;

/// Master seed for all figure benches; change to re-draw every experiment.
inline constexpr std::uint64_t kMasterSeed = 20070600;  // ICPP 2007 vintage

/// Upper bound on schemes per sweep (there are 5; 8 pads a trial's row of
/// counters to exactly one cache line).
inline constexpr std::size_t kMaxSchemes = 8;

/// Per-trial forwarding-set sizes of the source node (node 0) for each
/// requested scheme, on freshly drawn deployments.  sizes[s][t] = size of
/// scheme `schemes[s]`'s forwarding set in trial t.  Trials are
/// deterministic per (seed, trial) and shared across schemes (every scheme
/// sees the same point set, as in the paper).  Trials run on
/// sim::default_pool(), so every sweep point of a bench shares one set of
/// workers, sized by MLDCS_THREADS; the sizes do not depend on it.
inline std::vector<std::vector<std::uint64_t>> run_sweep_point(
    const net::DeploymentParams& params,
    const std::vector<bcast::Scheme>& schemes, std::size_t trials,
    std::uint64_t seed) {
  if (schemes.size() > kMaxSchemes) {
    throw std::invalid_argument("run_sweep_point: too many schemes");
  }
  // Trial-major accumulation: each trial owns one cache-line-aligned row,
  // so concurrent trials on different threads never write the same line
  // (the old sizes[s][t] scheme-major layout put up to 8 adjacent trials'
  // counters on one line — false sharing on every store).  Transposed to
  // the scheme-major return shape once, after the parallel section.
  struct alignas(64) TrialRow {
    std::array<std::uint64_t, kMaxSchemes> size_of_scheme;
  };
  std::vector<TrialRow> rows(trials);
  const auto body = [&](std::size_t t) {
    sim::Xoshiro256 rng(sim::derive_seed(seed, t));
    const net::DiskGraph g = net::generate_graph(params, rng);
    const bcast::LocalView view = bcast::local_view(g, 0);
    // One skyline-engine workspace per worker thread (workers are
    // persistent, so this amortizes across every trial and sweep point).
    thread_local core::SkylineWorkspace ws;
    rows[t].size_of_scheme.fill(0);
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      rows[t].size_of_scheme[s] =
          bcast::forwarding_set(g, view, schemes[s], ws).size();
    }
  };
  sim::default_pool().parallel_for(trials, body);

  std::vector<std::vector<std::uint64_t>> sizes(
      schemes.size(), std::vector<std::uint64_t>(trials, 0));
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      sizes[s][t] = rows[t].size_of_scheme[s];
    }
  }
  return sizes;
}

/// Mean of integer sizes.
inline double mean_size(const std::vector<std::uint64_t>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (auto v : xs) acc += static_cast<double>(v);
  return acc / static_cast<double>(xs.size());
}

/// Standard bench banner so every binary's output is self-describing.
inline void banner(const std::string& experiment_id, const std::string& what) {
  std::cout << "==================================================================\n"
            << experiment_id << " — " << what << '\n'
            << "trials per point: " << kTrials << ", master seed: "
            << kMasterSeed << '\n'
            << "==================================================================\n";
}

}  // namespace mldcs::bench
