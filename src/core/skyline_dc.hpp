#pragma once

/// \file skyline_dc.hpp
/// The paper's divide-and-conquer `Skyline` procedure (Section 3.4):
/// split the local disk set in half, recurse, and `Merge` the two partial
/// skylines.  With Lemma 8 bounding every skyline of n disks to at most 2n
/// arcs, Merge is O(n) and the whole algorithm is O(n log n) (Theorem 9) —
/// optimal, since sorting reduces to local-disk-cover computation.
///
/// The engine here runs the recursion *iteratively, bottom-up*: level 0
/// holds n single-disk skylines concatenated in one buffer; each pass
/// merges adjacent pairs into the other buffer.  All scratch lives in a
/// `SkylineWorkspace` the caller holds, so a loop that computes thousands
/// of skylines on one workspace performs no heap allocation after the
/// first call (the recursive formulation allocated four vectors per Merge
/// — see `compute_skyline_recursive` in skyline_reference.hpp, kept as the
/// differential baseline).  The relay loops keep theirs in
/// `bcast::detail::RelayBatch`; the validated one-shot entry points
/// (`mldcs`, `skyline_of` in mldcs.hpp) build one per call.

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "core/merge.hpp"
#include "core/skyline.hpp"
#include "geometry/disk.hpp"
#include "geometry/disk_soa.hpp"
#include "geometry/vec2.hpp"

namespace mldcs::core {

/// Reusable scratch for the iterative skyline engine: two ping-pong
/// starts-only level buffers (each holding a whole level of partial
/// skylines, delimited by a bounds array), the structure-of-arrays disk
/// storage feeding the geom::simd batch kernels, and the level-wide Merge
/// task arrays.  One workspace serves any number of sequential
/// compute_skyline calls of any size; it is not thread-safe — use one per
/// thread (see bcast::compute_all_skylines).
class SkylineWorkspace {
 public:
  SkylineWorkspace() = default;

  SkylineWorkspace(const SkylineWorkspace&) = delete;
  SkylineWorkspace& operator=(const SkylineWorkspace&) = delete;
  SkylineWorkspace(SkylineWorkspace&&) = default;
  SkylineWorkspace& operator=(SkylineWorkspace&&) = default;

  /// Grow the buffers for local disk sets of up to `n_disks` disks, so the
  /// next compute_skyline call of that size allocates nothing.
  MLDCS_ALLOC_OK void reserve(std::size_t n_disks);

 private:
  friend void compute_skyline_arcs(std::span<const geom::Disk>, geom::Vec2,
                                   SkylineWorkspace&, std::vector<Arc>&,
                                   MergeStats*);

  detail::LevelSoA lev_cur_;          ///< even levels' partial skylines
  detail::LevelSoA lev_next_;         ///< odd levels' partial skylines
  detail::MergeLevelScratch scratch_; ///< batched Merge task arrays
  geom::DiskSoA soa_;                 ///< all disks, then live-local order
  detail::ZeroCutTable zeros_;        ///< per-live-disk boundary-relay cuts
  std::vector<double> sector_max_;    ///< prefilter: kSectors x padded(n)
  std::vector<std::uint8_t> keep_;    ///< prefilter: per-disk verdicts
  std::vector<std::uint32_t> live_;   ///< prefilter: surviving indices
};

/// How far below the radial envelope a disk must stay, at every angle, for
/// the sector-bound prefilter to drop it.  1e-6 is >> geom::kTol and
/// >> |rho'| * geom::kAngleTol at the library's coordinate scale, so no
/// tolerant comparison in Merge could have picked a dropped disk, and
/// dropping it leaves the arcs bit-identical (docs/ALGORITHM.md section 5).
/// Duplicates, concentric and internally tangent disks that touch the
/// envelope stay within it and are kept.
inline constexpr double kEnvelopeMargin = 1e-6;

/// Compute the skyline of a local disk set around relay `o` with the
/// divide-and-conquer algorithm, all intermediate buffers taken from `ws`.
///
/// Preconditions: every disk contains `o` (a *local* disk set; validated by
/// the `mldcs()` entry point, assumed here).  Arc disk-indices in the result
/// refer to positions in `disks`.
///
/// `stats`, when non-null, accumulates Merge instrumentation across all
/// recursion levels.
///
/// The only allocation of a warmed-up `ws` is the returned Skyline's own
/// arc vector; use compute_skyline_arcs to avoid even that.
[[nodiscard]] MLDCS_ALLOC_OK Skyline compute_skyline(
    std::span<const geom::Disk> disks, geom::Vec2 o, SkylineWorkspace& ws,
    MergeStats* stats = nullptr);

/// Fully allocation-free form: writes the final arc list into `out`
/// (cleared first, capacity reused).  The hot path of the batch all-relay
/// API.
MLDCS_HOT_PATH MLDCS_NO_LOCK void compute_skyline_arcs(
    std::span<const geom::Disk> disks, geom::Vec2 o, SkylineWorkspace& ws,
    std::vector<Arc>& out, MergeStats* stats = nullptr);

}  // namespace mldcs::core
