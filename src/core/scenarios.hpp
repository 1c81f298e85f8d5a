#pragma once

/// \file scenarios.hpp
/// Local-disk-set generators shared by the property-test suites and the
/// figure benches: random heterogeneous/homogeneous neighborhoods,
/// degenerate configurations (the edge cases Merge must survive), and the
/// paper's named constructions (Figure 4.1).

#include <cstddef>
#include <vector>

#include "geometry/disk.hpp"
#include "geometry/vec2.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {

/// A generated local disk set: `disks[0]` is the relay's own disk centered
/// at `origin`; all disks contain `origin` (and, for the random generators,
/// satisfy the full bidirectional-neighbor rule ||u_i - o|| <= min(r_0, r_i)).
struct Scenario {
  geom::Vec2 origin;
  std::vector<geom::Disk> disks;
};

/// Random neighborhood of n disks (relay + n-1 neighbors).  Radii are
/// U[r_min, r_max] when `heterogeneous`, else all r_max; neighbor positions
/// are uniform over the disk of radius min(r_0, r_i) around the origin, so
/// the bidirectional rule holds by construction.
[[nodiscard]] Scenario random_local_set(sim::Xoshiro256& rng, std::size_t n,
                                        bool heterogeneous,
                                        double r_min = 1.0, double r_max = 2.0);

/// The hard regime for Merge: the relay's disk (radius 1.01) at the origin
/// plus n - 1 neighbors with radii U[1.0, 1.02] at 97% of the link distance
/// min(r_0, r_i), at uniform angles.  Nearly every disk owns an arc, so the
/// sector-bound prefilter drops almost none (1023 of 1024 survive) and the
/// arc count stays Θ(n) instead of collapsing to a few dominating disks.
[[nodiscard]] Scenario narrow_band_set(sim::Xoshiro256& rng, std::size_t n);

/// n concentric disks at the origin with radii 1, 2, ..., n — the skyline
/// is the single largest disk.
[[nodiscard]] Scenario concentric_set(std::size_t n);

/// `copies` identical unit disks around the origin — exercises coincident-
/// circle tie-breaking; MLDCS cardinality must be 1.
[[nodiscard]] Scenario duplicate_set(std::size_t copies);

/// One huge disk at the origin dominating n - 1 random unit disks — MLDCS
/// cardinality must be 1 (the huge disk).
[[nodiscard]] Scenario dominated_set(sim::Xoshiro256& rng, std::size_t n);

/// Two internally tangent disks (small disk touching the big one from
/// inside at angle 0) plus the relay's own disk.
[[nodiscard]] Scenario tangent_pair();

/// Disk centers evenly spaced on a diameter segment through the origin,
/// identical radii — produces long chains of pairwise-crossing circles.
[[nodiscard]] Scenario collinear_set(std::size_t n);

/// The Figure 4.1 construction: k unit disks centered evenly on the circle
/// of radius 1/2 around the origin, plus (added conceptually *last*) the
/// disk B(o, r) with r = ||o - p|| + r_frac * (3/2 - ||o - p||), where p is
/// the outer intersection point of two adjacent unit circles.  For
/// r_frac in (0, 1) the central disk contributes exactly k skyline arcs —
/// the example showing Lemma 8's insertion bound needs decreasing-radius
/// order.  disks[k] is the central disk.
[[nodiscard]] Scenario figure41_configuration(std::size_t k,
                                              double r_frac = 0.5);

/// The paper's running example of Figure 3.2-flavored neighborhoods: a
/// relay with one dominated neighbor.  disks = {relay, 4 skyline disks,
/// 1 dominated disk (index 3)}; MLDCS excludes index 3.
[[nodiscard]] Scenario figure32_like_configuration();

}  // namespace mldcs::core
