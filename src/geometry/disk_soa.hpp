#pragma once

/// \file disk_soa.hpp
/// Structure-of-arrays disk storage for the batch geometry kernels.
///
/// The skyline engine's hot loops (sector-bound prefilter, circle-circle
/// intersection, per-ray boundary-distance evaluation) consume disk
/// parameters lane-wise: the SIMD kernels in simd.hpp read `kLaneBlock`
/// consecutive centers/radii per step.  An array-of-structs `geom::Disk`
/// span interleaves x/y/r, so every vector load would gather; this type
/// keeps the three components in separate contiguous arrays, padded so a
/// full lane block read past the logical end is always in bounds.
///
/// Padding lanes carry `kSentinelRadius` (most-negative double), which no
/// real radius reaches: the sector-bound kernel reads a negative radius as
/// a padding lane and keeps it out of its envelope bound.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geometry/disk.hpp"

namespace mldcs::geom {

/// Separate cx[]/cy[]/r[] storage for a disk set, padded to the kernel
/// lane-block size.  Lives inside core::SkylineWorkspace so repeated
/// skyline computations reuse the buffers without allocating.
struct DiskSoA {
  /// Every batch kernel consumes task arrays in blocks of this many lanes;
  /// all concrete lane widths (1 scalar, 2 NEON, 4 AVX2) divide it.
  static constexpr std::size_t kLaneBlock = 8;

  /// Radius stored in padding lanes.  -DBL_MAX (not -inf) so `r - other`
  /// stays well-defined for every finite operand while still comparing
  /// below any real radius.
  static constexpr double kSentinelRadius =
      -std::numeric_limits<double>::max();

  std::vector<double> cx;
  std::vector<double> cy;
  std::vector<double> r;
  std::size_t count = 0;  ///< logical (unpadded) number of disks

  /// Smallest multiple of kLaneBlock >= n.
  [[nodiscard]] static constexpr std::size_t padded(std::size_t n) noexcept {
    return (n + kLaneBlock - 1) / kLaneBlock * kLaneBlock;
  }

  /// Padded size of the current contents.
  [[nodiscard]] std::size_t padded_size() const noexcept {
    return padded(count);
  }

  void reserve(std::size_t n) {
    cx.reserve(padded(n));
    cy.reserve(padded(n));
    r.reserve(padded(n));
  }

  /// Size the arrays for up to `n` disks, every lane a sentinel, and reset
  /// the logical count.  Follow with push() — lanes at and beyond `count`
  /// keep their sentinel radius, so the arrays stay safely padded after
  /// every push without touching the tail again.
  void assign_sentinels(std::size_t n) {
    const std::size_t m = padded(n);
    cx.assign(m, 0.0);
    cy.assign(m, 0.0);
    r.assign(m, kSentinelRadius);
    count = 0;
  }

  /// Append one disk.  Precondition: count < the `n` given to
  /// assign_sentinels (the arrays do not grow here — this is hot-path code).
  void push(double x, double y, double radius) noexcept {
    cx[count] = x;
    cy[count] = y;
    r[count] = radius;
    ++count;
  }

  /// Bulk-load every disk of `disks`, sentinel-padded.
  void assign(std::span<const Disk> disks) {
    assign_sentinels(disks.size());
    for (const Disk& d : disks) push(d.center.x, d.center.y, d.radius);
  }

  /// Keep the disks whose `keep` flag is nonzero, in order; the vacated
  /// lanes become sentinels again, so every lane at and beyond the new
  /// count is padding, as after push().  `keep` covers the current count.
  void retain(const std::uint8_t* keep) noexcept {
    std::size_t w = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (keep[i] == 0) continue;
      cx[w] = cx[i];
      cy[w] = cy[i];
      r[w] = r[i];
      ++w;
    }
    for (std::size_t i = w; i < count; ++i) {
      cx[i] = 0.0;
      cy[i] = 0.0;
      r[i] = kSentinelRadius;
    }
    count = w;
  }
};

}  // namespace mldcs::geom
