#pragma once

/// \file radial.hpp
/// Polar-around-`o` view of a local disk set.
///
/// For a *local disk set* the relay position `o` lies in every disk
/// (||o - u_i|| <= r_i, Section 3.2).  Lemma 1 then gives star-shapedness:
/// the segment from `o` to any boundary point stays inside the disk, and
/// Corollary 2 says any ray from `o` meets the skyline exactly once.  So in
/// polar coordinates centered at `o` each boundary circle is the graph of a
/// total function rho_i(theta) and the skyline is the upper envelope
/// rho(theta) = max_i rho_i(theta).  This header provides that function and
/// its kin; the skyline algorithms in src/core are built on it.

#include <cstddef>
#include <span>

#include "geometry/disk.hpp"
#include "geometry/vec2.hpp"

namespace mldcs::geom {

/// Precomputed polar form of one disk relative to an origin `o` that the
/// disk contains.
class RadialDisk {
 public:
  /// Precondition: d.contains(o) — the defining property of a local disk
  /// set.  Violations are clamped (the radicand is clamped at 0), but the
  /// library's public entry points validate and reject such inputs first.
  RadialDisk(const Disk& d, Vec2 o) noexcept;

  /// Distance from `o` to the boundary of the disk along direction `theta`
  /// (the unique forward crossing — Lemma 1 guarantees there is exactly one
  /// in the +theta direction).
  [[nodiscard]] double radius_at(double theta) const noexcept;

  /// The boundary point at ray angle theta: o + rho(theta) * unit(theta).
  [[nodiscard]] Vec2 boundary_point_at(double theta) const noexcept;

  /// Distance from the origin to the disk center.
  [[nodiscard]] double center_distance() const noexcept { return d_; }

  /// Angle of the disk center as seen from the origin.
  [[nodiscard]] double center_angle() const noexcept { return phi_; }

  [[nodiscard]] const Disk& disk() const noexcept { return disk_; }
  [[nodiscard]] Vec2 origin() const noexcept { return o_; }

 private:
  Disk disk_;
  Vec2 o_;
  double d_ = 0.0;    ///< ||center - o||
  double phi_ = 0.0;  ///< atan2(center - o)
};

/// rho(theta) for disk `d` around origin `o` without precomputation.
/// Precondition: d.contains(o).
[[nodiscard]] double radial_distance(const Disk& d, Vec2 o,
                                     double theta) noexcept;

/// Index of the disk attaining the maximum radial distance at `theta`
/// (ties broken toward larger radius, then smaller index — the library-wide
/// deterministic tie-break).  Returns SIZE_MAX on an empty span.
[[nodiscard]] std::size_t radial_argmax(std::span<const Disk> disks, Vec2 o,
                                        double theta) noexcept;

/// The upper-envelope value max_i rho_i(theta); 0 on an empty span.
[[nodiscard]] double radial_envelope(std::span<const Disk> disks, Vec2 o,
                                     double theta) noexcept;

/// Degenerate-support angles: when `o` lies exactly on the boundary of `d`
/// (||o - c|| == r within tol), rho is 2r*cos(theta - phi) on the half
/// circle facing the center and identically 0 on the other half; the
/// envelope winner can change at the two transition angles phi +- pi/2,
/// which are NOT circle-circle intersection points.  Returns how many
/// angles were written to `out[0..1]` (0 when o is strictly inside).
/// Both skyline implementations add these as breakpoint candidates.
[[nodiscard]] int radial_zero_transitions(const Disk& d, Vec2 o,
                                          double out[2],
                                          double tol = kTol) noexcept;

}  // namespace mldcs::geom
