#include "geometry/radial.hpp"

#include <cmath>
#include <cstddef>
#include <limits>

#include "geometry/angle.hpp"
#include "geometry/tolerance.hpp"

namespace mldcs::geom {

RadialDisk::RadialDisk(const Disk& d, Vec2 o) noexcept
    : disk_(d), o_(o), d_((d.center - o).norm()), phi_((d.center - o).angle()) {}

double RadialDisk::radius_at(double theta) const noexcept {
  // Law-of-cosines solution of ||o + rho*u(theta) - c|| = r for rho >= 0:
  //   rho = d cos(theta - phi) + sqrt(r^2 - d^2 sin^2(theta - phi)).
  // With o inside the disk (d <= r) the radicand is >= r^2 - d^2 >= 0 and
  // the + root is the unique non-negative solution.
  const double a = theta - phi_;
  const double s = std::sin(a);
  const double radicand = disk_.radius * disk_.radius - d_ * d_ * s * s;
  return d_ * std::cos(a) + std::sqrt(clamp(radicand, 0.0, radicand));
}

Vec2 RadialDisk::boundary_point_at(double theta) const noexcept {
  return o_ + radius_at(theta) * unit_at(theta);
}

double radial_distance(const Disk& d, Vec2 o, double theta) noexcept {
  return RadialDisk(d, o).radius_at(theta);
}

std::size_t radial_argmax(std::span<const Disk> disks, Vec2 o,
                          double theta) noexcept {
  std::size_t best = std::numeric_limits<std::size_t>::max();
  double best_rho = -std::numeric_limits<double>::infinity();
  double best_r = -1.0;
  for (std::size_t i = 0; i < disks.size(); ++i) {
    const double rho = radial_distance(disks[i], o, theta);
    if (rho > best_rho + kTol) {
      best = i;
      best_rho = rho;
      best_r = disks[i].radius;
    } else if (rho > best_rho - kTol) {
      // Tie within tolerance: prefer the larger radius, then the smaller
      // index, matching the skyline algorithms' tie-break.
      if (disks[i].radius > best_r + kTol) {
        best = i;
        best_rho = std::max(best_rho, rho);
        best_r = disks[i].radius;
      }
    }
  }
  return best;
}

double radial_envelope(std::span<const Disk> disks, Vec2 o,
                       double theta) noexcept {
  double best = 0.0;
  for (const Disk& d : disks) best = std::max(best, radial_distance(d, o, theta));
  return best;
}

int radial_zero_transitions(const Disk& d, Vec2 o, double out[2],
                            double tol) noexcept {
  const Vec2 rel = d.center - o;
  const double dist = rel.norm();
  if (!approx_equal(dist, d.radius, tol) || d.radius <= tol) return 0;
  const double phi = rel.angle();
  out[0] = normalize_angle(phi + kPi / 2.0);
  out[1] = normalize_angle(phi - kPi / 2.0);
  return 2;
}

}  // namespace mldcs::geom
