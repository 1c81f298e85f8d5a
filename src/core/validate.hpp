#pragma once

/// \file validate.hpp
/// The library's one statement of what a valid local disk set and a valid
/// skyline are, as checks that the engine's debug wiring (MLDCS_DCHECK_OK,
/// invariants.hpp), the test suites and the figure benches all call.
///
/// These validators deliberately avoid the Merge machinery: they compare
/// radial envelopes point-wise and construct the Theorem 3 exclusive-
/// coverage witnesses directly, so a bug in Merge cannot hide from them.
/// Every degeneracy — tangent disks, coincident centers, arcs collapsing
/// below kAngleTol — must be resolved on the same side by the engine and
/// by the references in skyline_reference.hpp, or the Theorem 3
/// minimality argument silently breaks; the contract checks below return
/// "" when their contract holds and a description of the first violation
/// otherwise.

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "core/annotations.hpp"
#include "core/arc.hpp"
#include "core/skyline.hpp"
#include "geometry/disk.hpp"
#include "geometry/vec2.hpp"

namespace mldcs::core {

// --- Contracts --------------------------------------------------------------

/// The local-disk-set premise (paper Section 3.2): the relay `o` is finite
/// and every disk is finite, non-negative, and contains `o` — the geometric
/// form of the bidirectional-link rule (||o - u_i|| <= r_i means u_i hears
/// o and o hears u_i at radius r_i).  LocalDiskSet throws on a violation;
/// the engine checks it on entry in checked builds.
[[nodiscard]] MLDCS_ALLOC_OK std::string describe_local_set_violation(
    std::span<const geom::Disk> disks, geom::Vec2 o);

/// Structural invariants of a skyline arc list (the class comment on
/// `Skyline`): angles sorted and exactly contiguous, cyclic closure
/// arcs.front().start == 0 and arcs.back().end == 2*pi at the relay seam,
/// no arc narrower than kAngleTol (sub-tolerance slivers must have been
/// coalesced), adjacent arcs from different disks, and all disk indices
/// below `n_disks` (pass SIZE_MAX to skip the bound).
[[nodiscard]] MLDCS_ALLOC_OK std::string check_arc_list(
    std::span<const Arc> arcs,
    std::size_t n_disks = std::numeric_limits<std::size_t>::max());

/// A computed skyline of `disks`: check_arc_list over disks.size(), empty
/// exactly when `disks` is, at most 2n arcs for n disks (Lemma 8), every
/// arc's disk on the radial envelope at the arc midpoint, and adjacent
/// arcs (across the 0/2*pi seam too) meeting at the same radius.
/// O(n) per arc, so O(n^2).
[[nodiscard]] std::string verify_skyline(const Skyline& sky,
                                         std::span<const geom::Disk> disks);

/// The engine's exit check runs check_skyline_minimality only on inputs of
/// at most this many disks, so checked test runs stay fast.
inline constexpr std::size_t kDeepCheckMaxDisks = 96;

/// The Theorem 3 contract of a computed skyline: verify_skyline, then the
/// skyline set (minimal cardinality and identical degeneracy resolution)
/// and the enclosed union area (within 1e-7 absolute, on the paper's
/// O(10)-sized deployments) equal those of compute_skyline_bruteforce.
/// Cost: the reference's, O(n^2 log n + n^3) — O(n^2) candidate
/// breakpoints, an O(n) argmax per span — fitted at 70 n^3 ns
/// (EXPERIMENTS.md).  Run on each of the ~3,000 skylines of up to ~34
/// disks in AllSkylinesTest.MatchesPerRelayReferenceHeterogeneous, it
/// takes that test to 152 s under asan-ubsan and 188 s under tsan on a
/// 4-core x86-64 host, against 0.11 s in Release.
[[nodiscard]] MLDCS_ALLOC_OK std::string check_skyline_minimality(
    const Skyline& sky, std::span<const geom::Disk> disks);

// --- Reference comparisons --------------------------------------------------

/// Maximum absolute difference between the skyline's implied radial function
/// and the true upper envelope max_i rho_i, over `samples` equally spaced
/// angles.  A correct skyline yields ~0 (within tolerance).
[[nodiscard]] double max_radial_error(const Skyline& sky,
                                      std::span<const geom::Disk> disks,
                                      std::size_t samples = 4096);

/// True if the subset of disks indexed by `subset` covers the same area as
/// all of `disks`: the subset's radial envelope equals the full envelope at
/// `samples` angles (sufficient for local disk sets by Corollary 2 star-
/// shapedness, up to sampling resolution).
[[nodiscard]] bool is_disk_cover_set(std::span<const std::size_t> subset,
                                     std::span<const geom::Disk> disks,
                                     geom::Vec2 o, std::size_t samples = 4096,
                                     double tol = 1e-7);

/// Theorem 3 witness: a point exclusively covered by `disks[i]` (inside it,
/// outside every other disk), or nullopt if disk i contributes no skyline
/// arc.  Constructed as the paper does: take an interior point of one of
/// disk i's skyline arcs, nudged just inside the boundary.
[[nodiscard]] std::optional<geom::Vec2> exclusive_coverage_witness(
    const Skyline& sky, std::span<const geom::Disk> disks, std::size_t i);

}  // namespace mldcs::core
