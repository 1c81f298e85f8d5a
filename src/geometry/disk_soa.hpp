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
  /// all concrete lane widths (1 scalar, 2 NEON, 4 AVX2) divide it.  One
  /// AVX2 vector: the engine's batches at the paper's density hold a few
  /// dozen tasks, so a wider block only adds padding lanes.
  static constexpr std::size_t kLaneBlock = 4;

  /// Radius stored in padding lanes.  -DBL_MAX (not -inf) so `r - other`
  /// stays well-defined for every finite operand while still comparing
  /// below any real radius.
  static constexpr double kSentinelRadius =
      -std::numeric_limits<double>::max();

  /// The arrays only grow; lanes [count, padded(count)) hold sentinels.
  std::vector<double> cx;
  std::vector<double> cy;
  std::vector<double> r;
  std::size_t count = 0;  ///< logical (unpadded) number of disks

  /// Smallest multiple of kLaneBlock >= n.
  [[nodiscard]] static constexpr std::size_t padded(std::size_t n) noexcept {
    return (n + kLaneBlock - 1) / kLaneBlock * kLaneBlock;
  }

  void reserve(std::size_t n) {
    cx.reserve(padded(n));
    cy.reserve(padded(n));
    r.reserve(padded(n));
  }

  /// Load every disk of `disks`, sentinel-padded.
  void assign(std::span<const Disk> disks) {
    const std::size_t n = disks.size();
    const std::size_t m = padded(n);
    if (cx.size() < m) {
      cx.resize(m);
      cy.resize(m);
      r.resize(m);
    }
    for (std::size_t i = 0; i < n; ++i) {
      cx[i] = disks[i].center.x;
      cy[i] = disks[i].center.y;
      r[i] = disks[i].radius;
    }
    for (std::size_t i = n; i < m; ++i) {
      cx[i] = 0.0;
      cy[i] = 0.0;
      r[i] = kSentinelRadius;
    }
    count = n;
  }

  /// Keep the disks whose `keep` flag is nonzero, in order, and write each
  /// kept disk's former position to `kept` (room for the current count);
  /// returns the new count.  The vacated lanes become sentinels again.
  /// Every disk is stored at the write cursor, which advances only past a
  /// kept one, so the compaction takes no data-dependent branch.
  std::size_t retain(const std::uint8_t* keep, std::uint32_t* kept) noexcept {
    std::size_t w = 0;
    for (std::size_t i = 0; i < count; ++i) {
      cx[w] = cx[i];
      cy[w] = cy[i];
      r[w] = r[i];
      kept[w] = static_cast<std::uint32_t>(i);
      w += static_cast<std::size_t>(keep[i] != 0);
    }
    for (std::size_t i = w; i < count; ++i) {
      cx[i] = 0.0;
      cy[i] = 0.0;
      r[i] = kSentinelRadius;
    }
    count = w;
    return w;
  }
};

}  // namespace mldcs::geom
