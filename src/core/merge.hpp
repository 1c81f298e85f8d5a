#pragma once

/// \file merge.hpp
/// The `Merge` procedure of the paper's divide-and-conquer algorithm
/// (Section 3.4): combine two skylines of disjoint sub-sets of the local
/// disk set into the skyline of their union.
///
/// Step 1 refines both arc lists onto the union of their breakpoint angles;
/// Step 2 resolves each aligned span by the three cases (no crossing, one
/// crossing, two crossings — crossings are circle-circle intersection points
/// whose angle at `o` falls inside the span); Step 3 coalesces neighboring
/// arcs contributed by the same disk.

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "core/arc.hpp"
#include "geometry/disk.hpp"
#include "geometry/disk_soa.hpp"
#include "geometry/simd.hpp"
#include "geometry/vec2.hpp"

namespace mldcs::core {

/// Instrumentation for complexity experiments (Theorem 9 / Lemma 8 benches).
struct MergeStats {
  std::uint64_t spans = 0;                 ///< aligned spans processed
  std::uint64_t circle_intersections = 0;  ///< circle-pair intersections computed
  std::uint64_t arcs_emitted = 0;          ///< arcs before Step-3 coalescing
  /// Disks compute_skyline_arcs's sector-bound prefilter let into the
  /// merge levels.
  std::uint64_t survivors = 0;
};

/// Merge two well-formed arc lists over the same local disk set `disks`
/// around relay `o`.  Either input may be empty (the other is returned).
/// The result is well-formed (normalized).  `stats`, when non-null, is
/// accumulated into.  This is the paper's pairwise Merge as written, used
/// by skyline_reference and the tests; the engine merges a whole level at
/// once through detail::merge_level_batched.
[[nodiscard]] std::vector<Arc> merge_skylines(std::span<const Arc> sl1,
                                              std::span<const Arc> sl2,
                                              std::span<const geom::Disk> disks,
                                              geom::Vec2 o,
                                              MergeStats* stats = nullptr);

/// Decide which of two disks is the outer one at ray angle `theta`, with the
/// library tie-break (larger radial distance; ties -> larger disk radius,
/// then smaller index).  Exposed for tests.
[[nodiscard]] std::size_t outer_disk_at(std::span<const geom::Disk> disks,
                                        geom::Vec2 o, double theta,
                                        std::size_t i, std::size_t j) noexcept;

namespace detail {

/// One level of partial skylines in starts-only structure-of-arrays form.
/// Arc k of a skyline runs from start[k] to the next entry's start (2*pi
/// for the skyline's last arc), so span endpoints are shared by
/// construction and Merge Step 3's post-hoc normalization disappears.
/// (ux, uy)[k] caches the unit vector of start[k] — either the exact
/// constant (1, 0) for the 0.0 split or the normalized cut vector computed
/// when the breakpoint was born — letting Merge test span membership with
/// two cross products instead of an atan2 per candidate.  `disk` holds
/// live-local ids (positions in the prefiltered SkylineWorkspace set).
struct LevelSoA {
  std::vector<double> start;
  std::vector<double> ux;
  std::vector<double> uy;
  std::vector<std::uint32_t> disk;
  std::vector<std::uint32_t> bounds;  ///< skyline i = [bounds[i], bounds[i+1])

  [[nodiscard]] std::size_t skylines() const noexcept {
    return bounds.empty() ? 0 : bounds.size() - 1;
  }

  /// Empty the level and open its first skyline.
  void begin_level() {
    start.clear();
    ux.clear();
    uy.clear();
    disk.clear();
    bounds.clear();
    bounds.push_back(0);
  }

  void push(double s, double x, double y, std::uint32_t d) {
    start.push_back(s);
    ux.push_back(x);
    uy.push_back(y);
    disk.push_back(d);
  }

  /// Seal the open skyline at the current arc count.
  void close_skyline() {
    bounds.push_back(static_cast<std::uint32_t>(start.size()));
  }

  MLDCS_ALLOC_OK void reserve(std::size_t n_disks);
};

/// Per-live-disk zero-transition cuts, computed once per skyline call.
/// Nonempty (count > 0) only for disks whose boundary passes through the
/// relay (|dist - r| <= kTol) — merge.cpp's resolve_span recomputed this
/// per span encounter; the batched engine hoists it out of the level loop.
struct ZeroCutTable {
  std::vector<std::uint8_t> count;  ///< 0..2 transitions per live disk
  std::vector<double> ang0, ang1;   ///< transition angles in [0, 2*pi)
  std::vector<double> ux0, uy0;     ///< unit vectors of ang0 / ang1
  std::vector<double> ux1, uy1;
  /// True iff any live disk has count > 0.  Almost always false (the relay
  /// must sit exactly on a disk boundary), letting Merge skip the
  /// per-span zero-cut scan wholesale.
  bool any = false;

  void assign(std::size_t n) {
    any = false;
    count.assign(n, 0);
    ang0.resize(n);
    ang1.resize(n);
    ux0.resize(n);
    uy0.resize(n);
    ux1.resize(n);
    uy1.resize(n);
  }

  MLDCS_ALLOC_OK void reserve(std::size_t n_disks);
};

/// Flat task arrays for one level-wide batched merge.  Pass A fills the
/// span records and the gathered disk parameters; the geom::simd kernels
/// consume/produce the padded arrays; Passes B-D walk them scalar-wise.
/// All vectors reach steady-state capacity after the first call of a given
/// size, so repeated skylines allocate nothing.
struct MergeLevelScratch {
  // Refined spans (Pass A): angle range, endpoint units, contributing
  // live-local disks, owning merge pair.
  std::vector<double> sp_alpha, sp_beta;
  std::vector<double> sp_uax, sp_uay, sp_ubx, sp_uby;
  std::vector<std::uint32_t> sp_ia, sp_ib, sp_pair;
  // Gathered disk parameters — inputs of the circle-intersection batch
  // (one task per span), later refilled for the rho batch (one per
  // sub-span).
  std::vector<double> g_ax, g_ay, g_ar, g_bx, g_by, g_br;
  // Circle-intersection outputs: candidate cut vectors relative to o and
  // the fused acceptance code (simd.hpp CircleIsectFn: bit 0/1 = point
  // accepted, bit 2 = deferred to the scalar atan2 path; Pass B then ORs
  // in bit 3 = span has at least one accepted cut), plus the kernel's
  // speculative whole-span rho evaluation (consumed by Pass D for spans
  // that stay cut-free, which skips the sub-span batch for them).
  std::vector<double> iv0x, iv0y, iv1x, iv1y;
  std::vector<int> iacc;
  std::vector<double> s_da, s_db, s_ss;
  // Accepted intersection cuts awaiting angle/unit finalization.
  std::vector<double> cvx, cvy;
  std::vector<std::uint32_t> cspan;
  std::vector<double> cang, cux, cuy;
  // Zero-transition cuts (angle and unit known since precompute).
  std::vector<double> zang, zux, zuy;
  std::vector<std::uint32_t> zspan;
  // Sub-span winner evaluations: bisector direction (unnormalized), sub-
  // span start angle + unit, owning span; da/db/ss from the rho kernel
  // (ss = |s|^2, saving Pass D a reload of the direction streams).
  std::vector<double> e_sx, e_sy, e_lo, e_loux, e_louy;
  std::vector<std::uint32_t> e_span;
  std::vector<double> e_da, e_db, e_ss;

  MLDCS_ALLOC_OK void reserve(std::size_t n_disks);
};

/// Merge adjacent pairs of `cur`'s partial skylines into `next` (paper
/// Merge, Steps 1-3, across the whole level at once).  Geometry is batched
/// through `kernels` (see geometry/simd.hpp): one circle-intersection task
/// per refined span, one cut finalization per accepted crossing, one
/// paired-rho evaluation per emitted sub-span — so SIMD lanes stay full
/// even when individual skylines are short.  An odd trailing skyline is
/// NOT copied; the caller carries it.  `next` is fully overwritten (its
/// previous contents, including sizes, are ignored).  `soa` holds the
/// live disks (live-local ids), `zeros` their zero-transition cuts.
/// `stats` is accumulated when non-null.
MLDCS_HOT_PATH MLDCS_NO_LOCK void merge_level_batched(
    const LevelSoA& cur, LevelSoA& next, const geom::DiskSoA& soa,
    geom::Vec2 o, const ZeroCutTable& zeros,
    const geom::simd::SkylineKernels& kernels, MergeLevelScratch& ms,
    MergeStats* stats);

}  // namespace detail

}  // namespace mldcs::core
