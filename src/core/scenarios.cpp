#include "core/scenarios.hpp"

#include <algorithm>
#include <cmath>

#include "geometry/angle.hpp"

namespace mldcs::core {

using geom::Disk;
using geom::Vec2;

Scenario random_local_set(sim::Xoshiro256& rng, std::size_t n,
                          bool heterogeneous, double r_min, double r_max) {
  Scenario s;
  s.origin = {0.0, 0.0};
  if (n == 0) return s;
  const double r0 = heterogeneous ? rng.uniform(r_min, r_max) : r_max;
  s.disks.push_back(Disk{s.origin, r0});
  for (std::size_t i = 1; i < n; ++i) {
    const double ri = heterogeneous ? rng.uniform(r_min, r_max) : r_max;
    const double reach = std::min(r0, ri);
    // Uniform over the disk of radius `reach`: r = reach * sqrt(U).
    const double rho = reach * std::sqrt(rng.uniform());
    const double theta = rng.uniform(0.0, geom::kTwoPi);
    s.disks.push_back(Disk{rho * geom::unit_at(theta), ri});
  }
  return s;
}

Scenario narrow_band_set(sim::Xoshiro256& rng, std::size_t n) {
  Scenario s;
  s.origin = {0.0, 0.0};
  if (n == 0) return s;
  const double r0 = 1.01;
  s.disks.push_back(Disk{s.origin, r0});
  for (std::size_t i = 1; i < n; ++i) {
    const double ri = rng.uniform(1.0, 1.02);
    const double dist = 0.97 * std::min(r0, ri);
    const double theta = rng.uniform(0.0, geom::kTwoPi);
    s.disks.push_back(Disk{dist * geom::unit_at(theta), ri});
  }
  return s;
}

Scenario concentric_set(std::size_t n) {
  Scenario s;
  s.origin = {0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    s.disks.push_back(Disk{s.origin, static_cast<double>(i + 1)});
  }
  return s;
}

Scenario duplicate_set(std::size_t copies) {
  Scenario s;
  s.origin = {0.25, -0.125};
  for (std::size_t i = 0; i < copies; ++i) {
    s.disks.push_back(Disk{{0.0, 0.0}, 1.0});
  }
  return s;
}

Scenario dominated_set(sim::Xoshiro256& rng, std::size_t n) {
  Scenario s;
  s.origin = {0.0, 0.0};
  s.disks.push_back(Disk{s.origin, 10.0});
  for (std::size_t i = 1; i < n; ++i) {
    const double rho = std::sqrt(rng.uniform());
    const double theta = rng.uniform(0.0, geom::kTwoPi);
    s.disks.push_back(Disk{rho * geom::unit_at(theta), 1.0});
  }
  return s;
}

Scenario tangent_pair() {
  Scenario s;
  s.origin = {0.0, 0.0};
  s.disks.push_back(Disk{s.origin, 2.0});
  // Internally tangent at (2, 0): center (1.5, 0), radius 0.5... must also
  // contain the origin, so use center (1,0) radius 1, tangent at (2,0).
  s.disks.push_back(Disk{{1.0, 0.0}, 1.0});
  return s;
}

Scenario collinear_set(std::size_t n) {
  Scenario s;
  s.origin = {0.0, 0.0};
  const double r = 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Centers from -1 to +1 along the x axis (all within distance 1 <= r).
    const double x =
        n == 1 ? 0.0
               : -1.0 + 2.0 * static_cast<double>(i) /
                            static_cast<double>(n - 1);
    s.disks.push_back(Disk{{x, 0.0}, r});
  }
  return s;
}

Scenario figure41_configuration(std::size_t k, double r_frac) {
  Scenario s;
  s.origin = {0.0, 0.0};
  for (std::size_t i = 0; i < k; ++i) {
    const double a = geom::kTwoPi * static_cast<double>(i) /
                     static_cast<double>(k);
    s.disks.push_back(Disk{0.5 * geom::unit_at(a), 1.0});
  }
  // ||o - p||: outer intersection of two adjacent unit circles whose
  // centers are 1/2 from o with angular gap 2*pi/k (paper Section 4.1).
  const double half_gap = geom::kPi / static_cast<double>(k);
  const double sin_part = 0.5 * std::sin(half_gap);
  const double op = 0.5 * std::cos(half_gap) +
                    std::sqrt(1.0 - sin_part * sin_part);
  const double r = op + r_frac * (1.5 - op);
  s.disks.push_back(Disk{s.origin, r});
  return s;
}

Scenario figure32_like_configuration() {
  Scenario s;
  s.origin = {0.0, 0.0};
  s.disks.push_back(Disk{s.origin, 1.0});                 // relay
  s.disks.push_back(Disk{{0.9, 0.0}, 1.2});               // east
  s.disks.push_back(Disk{{0.0, 0.8}, 1.1});               // north
  s.disks.push_back(Disk{{0.2, 0.1}, 0.4});               // dominated
  s.disks.push_back(Disk{{-0.85, 0.1}, 1.3});             // west
  s.disks.push_back(Disk{{0.05, -0.9}, 1.25});            // south
  return s;
}

}  // namespace mldcs::core
