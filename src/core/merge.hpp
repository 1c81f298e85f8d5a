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

#include <cstddef>
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
///
/// The level holds `arcs` arcs and `skylines` skylines.  Its arrays are
/// carved from two grow-only buffers when a merge is about to write the
/// level (fit), sized for what that merge can write, so the level is
/// rewritten through raw cursors and never resized up and down, and the
/// buffers' reserved capacity stays untouched until a level needs it.
/// At least one slot past the last arc stays readable.
struct LevelSoA {
  double* start = nullptr;
  double* ux = nullptr;
  double* uy = nullptr;
  std::uint32_t* disk = nullptr;
  std::uint32_t* bounds = nullptr;  ///< skyline i = [bounds[i], bounds[i+1])
  std::size_t arcs = 0;
  std::size_t skylines = 0;

  LevelSoA() = default;
  LevelSoA(const LevelSoA&) = delete;  // the arrays point into its buffers
  LevelSoA& operator=(const LevelSoA&) = delete;
  LevelSoA(LevelSoA&&) = default;
  LevelSoA& operator=(LevelSoA&&) = default;

  /// Carve room for `n_arcs` arcs plus the readable slot, and
  /// `n_skylines` skylines; the level's previous contents are dropped.
  void fit(std::size_t n_arcs, std::size_t n_skylines);

  /// Capacity for `n_arcs` arcs and `n_skylines` skylines; sizes stay.
  MLDCS_ALLOC_OK void reserve(std::size_t n_arcs, std::size_t n_skylines);

 private:
  std::vector<double> reals_;        ///< start, ux, uy
  std::vector<std::uint32_t> ids_;   ///< disk, bounds
};

/// Per-live-disk zero-transition cuts, computed once per skyline call.
/// Nonempty (count > 0) only for disks whose boundary passes through the
/// relay (|dist - r| <= kTol) — merge.cpp's resolve_span recomputed this
/// per span encounter; the batched engine hoists it out of the level loop.
/// The caller writes count for every live disk and the angles and units
/// only where count says they exist.
struct ZeroCutTable {
  std::vector<std::uint8_t> count;  ///< 0..2 transitions per live disk
  std::vector<double> ang0, ang1;   ///< transition angles in [0, 2*pi)
  std::vector<double> ux0, uy0;     ///< unit vectors of ang0 / ang1
  std::vector<double> ux1, uy1;
  /// True iff any live disk has count > 0.  Almost always false (the relay
  /// must sit exactly on a disk boundary), letting Merge skip the
  /// per-span zero-cut scan wholesale.
  bool any = false;

  /// Grow to `n` live disks.
  void fit(std::size_t n);

  MLDCS_ALLOC_OK void reserve(std::size_t n_disks);
};

/// Flat task arrays for one level-wide batched merge.  Pass A fills the
/// span records and the gathered disk parameters; the geom::simd kernels
/// consume/produce the padded arrays; Passes B-D walk them scalar-wise.
/// Each level carves every array from three grow-only buffers (fit), with
/// the room the level's arc count allows (Lemma 8 bounds what a level can
/// hold), so the passes write through raw cursors with no size checks and
/// only what a level can use is ever sized; reserve() adds capacity alone.
struct MergeLevelScratch {
  // Refined spans (Pass A): angle range, endpoint units, contributing
  // live-local disks; each pair's spans end at pair_end[pair].
  double *sp_alpha = nullptr, *sp_beta = nullptr;
  double *sp_uax = nullptr, *sp_uay = nullptr, *sp_ubx = nullptr,
         *sp_uby = nullptr;
  std::uint32_t *sp_ia = nullptr, *sp_ib = nullptr, *pair_end = nullptr;
  // Gathered disk parameters — inputs of the circle-intersection batch
  // (one task per span), later refilled for the rho batch (one per
  // sub-span).
  double *g_ax = nullptr, *g_ay = nullptr, *g_ar = nullptr, *g_bx = nullptr,
         *g_by = nullptr, *g_br = nullptr;
  // Circle-intersection outputs: candidate cut vectors relative to o and
  // the fused acceptance code (simd.hpp CircleIsectFn: bit 0/1 = point
  // accepted, bit 2 = deferred to the scalar atan2 path; Pass B then ORs
  // in bit 3 = span has at least one cut), plus the kernel's speculative
  // whole-span rho evaluation (consumed by Pass D for spans that stay
  // cut-free, which skips the sub-span batch for them).
  double *iv0x = nullptr, *iv0y = nullptr, *iv1x = nullptr, *iv1y = nullptr;
  int* iacc = nullptr;
  double *s_da = nullptr, *s_db = nullptr, *s_ss = nullptr;
  // Cuts, grouped by span in span order: cut vectors (Kernel 2's input)
  // and their angle and unit (its output).  The m-th span with a cut is
  // span cut_span[m]; it owns cuts [cut_first[m], cut_first[m + 1]) and
  // its sub-span evaluations end at eval_end[m].
  double *cvx = nullptr, *cvy = nullptr;
  double *cang = nullptr, *cux = nullptr, *cuy = nullptr;
  std::uint32_t *cut_span = nullptr, *cut_first = nullptr,
                *eval_end = nullptr;
  // Zero-transition cuts: their slot in the cut list and their exact
  // angle and unit, written over Kernel 2's output for that slot.
  std::uint32_t* zslot = nullptr;
  double *zang = nullptr, *zux = nullptr, *zuy = nullptr;
  // Sub-span winner evaluations: bisector direction (unnormalized) and
  // sub-span start angle + unit; da/db/ss from the rho kernel (ss =
  // |s|^2, saving Pass D a reload of the direction streams).
  double *e_sx = nullptr, *e_sy = nullptr, *e_lo = nullptr,
         *e_loux = nullptr, *e_louy = nullptr;
  double *e_da = nullptr, *e_db = nullptr, *e_ss = nullptr;

  MergeLevelScratch() = default;
  MergeLevelScratch(const MergeLevelScratch&) = delete;  // see LevelSoA
  MergeLevelScratch& operator=(const MergeLevelScratch&) = delete;
  MergeLevelScratch(MergeLevelScratch&&) = default;
  MergeLevelScratch& operator=(MergeLevelScratch&&) = default;

  /// Carve every array for a level of `level_arcs` arcs and at most
  /// `zero_cuts` zero-transition cuts.
  void fit(std::size_t level_arcs, std::size_t zero_cuts);

  /// Capacity for any level of a skyline of `n_disks` disks.
  MLDCS_ALLOC_OK void reserve(std::size_t n_disks);

 private:
  std::vector<double> reals_;
  std::vector<std::uint32_t> ids_;
  std::vector<int> codes_;
};

/// Zero-transition cuts a level over `n_live` live disks can hold: a disk
/// has at most two transitions, and each falls strictly inside at most
/// one span of the one pair the disk belongs to.
[[nodiscard]] constexpr std::size_t zero_cut_bound(
    std::size_t n_live) noexcept {
  return 2 * n_live;
}

/// Arcs written to the next level when a level of `level_arcs` arcs with
/// at most `zero_cuts` zero-transition cuts is merged, before Step 3
/// coalescing drops any: one per refined span plus one per cut, with at
/// most two circle crossings per span, and spans number at most the
/// level's arcs.  The carried odd skyline fits within the same count.
[[nodiscard]] constexpr std::size_t merge_output_bound(
    std::size_t level_arcs, std::size_t zero_cuts) noexcept {
  return 3 * level_arcs + zero_cuts;
}

/// Merge adjacent pairs of `cur`'s partial skylines into `next` (paper
/// Merge, Steps 1-3, across the whole level at once).  Geometry is batched
/// through `kernels` (see geometry/simd.hpp): one circle-intersection task
/// per refined span, one cut finalization per accepted crossing, one
/// paired-rho evaluation per emitted sub-span — so SIMD lanes stay full
/// even when individual skylines are short.  An odd trailing skyline is
/// carried to `next` verbatim.  `cur` == nullptr stands for level 0: the
/// soa.count one-disk skylines of the live disks in order, each a single
/// full circle.  `next` is fully overwritten.  `soa` holds the live disks
/// (live-local ids), `zeros` their zero-transition cuts.  `stats` is
/// accumulated when non-null.
MLDCS_HOT_PATH MLDCS_NO_LOCK void merge_level_batched(
    const LevelSoA* cur, LevelSoA& next, const geom::DiskSoA& soa,
    geom::Vec2 o, const ZeroCutTable& zeros,
    const geom::simd::SkylineKernels& kernels, MergeLevelScratch& ms,
    MergeStats* stats);

}  // namespace detail

}  // namespace mldcs::core
