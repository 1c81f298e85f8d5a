#pragma once

/// \file skyline.hpp
/// The skyline of a local disk set: the boundary of the union of disks,
/// represented as the paper's angle-sorted arc list
/// (alpha_0, u_{s_0}, r_{s_0}, alpha_1, ..., alpha_n) with alpha_0 = 0 and
/// alpha_n = 2*pi (Section 3.3).

#include <cstddef>
#include <span>
#include <vector>

#include "core/arc.hpp"
#include "geometry/disk.hpp"
#include "geometry/vec2.hpp"

namespace mldcs::core {

/// An immutable, validated skyline: a contiguous sequence of arcs covering
/// [0, 2*pi] exactly once around the relay `origin`.
///
/// Invariants (checked by `check_arc_list` in validate.hpp, enforced by the
/// factory functions):
///  - arcs are non-empty (unless the skyline is of an empty disk set),
///  - arcs[0].start == 0 and arcs.back().end == 2*pi,
///  - arcs[i].end == arcs[i+1].start exactly (shared doubles, no drift),
///  - every arc is wider than kAngleTol (slivers are coalesced),
///  - adjacent arcs come from different disks (Step 3 of Merge coalesces).
class Skyline {
 public:
  Skyline() = default;

  /// Wrap an arc list that already satisfies the invariants.
  /// Precondition: `check_arc_list(arcs)` passes; checked in debug builds.
  Skyline(geom::Vec2 origin, std::vector<Arc> arcs);

  [[nodiscard]] geom::Vec2 origin() const noexcept { return origin_; }
  [[nodiscard]] std::span<const Arc> arcs() const noexcept { return arcs_; }
  [[nodiscard]] std::size_t arc_count() const noexcept { return arcs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return arcs_.empty(); }

  /// The skyline set (Section 3.2): sorted, de-duplicated indices of the
  /// disks contributing at least one arc.  By Theorem 3 this is the MLDCS.
  [[nodiscard]] std::vector<std::size_t> skyline_set() const;

  /// The index of the arc covering ray angle `theta` (normalized
  /// internally).  Returns SIZE_MAX on an empty skyline.
  [[nodiscard]] std::size_t arc_at(double theta) const noexcept;

  /// The disk index of the arc covering ray angle `theta`.
  [[nodiscard]] std::size_t disk_at(double theta) const noexcept;

  /// Number of arcs contributed by each disk index present in the skyline;
  /// the Lemma 8 instrumentation (returns pairs (disk, arc_count) sorted by
  /// disk).
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  arcs_per_disk() const;

  /// The radial-envelope value rho(theta) implied by this skyline, looking
  /// the covering arc's disk up in `disks` (the same local disk set the
  /// skyline was computed from).
  [[nodiscard]] double radius_at(std::span<const geom::Disk> disks,
                                 double theta) const noexcept;

  /// Exact area enclosed by the skyline (= area of the union of disks),
  /// via the closed-form sector integral of each arc.
  [[nodiscard]] double enclosed_area(std::span<const geom::Disk> disks) const;

  /// Exact length of the skyline (= perimeter of the union of disks): each
  /// arc contributes r * (ccw sweep of its endpoints measured at the disk
  /// center).  Traversing the skyline CCW around the relay also traverses
  /// each contributing circle CCW, so the center-angle sweep is well
  /// defined.
  [[nodiscard]] double perimeter(std::span<const geom::Disk> disks) const;

 private:
  geom::Vec2 origin_;
  std::vector<Arc> arcs_;
};

/// Build a well-formed arc list from a possibly fragmented one: sorts by
/// start angle, snaps adjacent endpoints together, drops empty arcs, and
/// coalesces neighboring arcs from the same disk (including across the
/// 0/2*pi seam conceptually — the first and last arcs may share a disk;
/// they are kept split per the paper's +x-axis convention).
[[nodiscard]] std::vector<Arc> normalize_arcs(std::vector<Arc> arcs);

}  // namespace mldcs::core
