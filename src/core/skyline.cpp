#include "core/skyline.hpp"

#include <algorithm>
#include <limits>

#include "core/invariants.hpp"
#include "core/validate.hpp"
#include "geometry/angle.hpp"
#include "geometry/area.hpp"
#include "geometry/radial.hpp"
#include "geometry/tolerance.hpp"

namespace mldcs::core {

using geom::kAngleTol;
using geom::kTwoPi;

Skyline::Skyline(geom::Vec2 origin, std::vector<Arc> arcs)
    : origin_(origin), arcs_(std::move(arcs)) {
  MLDCS_DCHECK_OK(check_arc_list(arcs_));
}

std::vector<std::size_t> Skyline::skyline_set() const {
  std::vector<std::size_t> out;
  out.reserve(arcs_.size());
  for (const Arc& a : arcs_) out.push_back(a.disk);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t Skyline::arc_at(double theta) const noexcept {
  if (arcs_.empty()) return std::numeric_limits<std::size_t>::max();
  const double t = geom::normalize_angle(theta);
  // Binary search on start angles: last arc with start <= t.
  auto it = std::upper_bound(
      arcs_.begin(), arcs_.end(), t,
      [](double v, const Arc& a) { return v < a.start; });
  if (it == arcs_.begin()) return 0;
  return static_cast<std::size_t>(std::distance(arcs_.begin(), it) - 1);
}

std::size_t Skyline::disk_at(double theta) const noexcept {
  const std::size_t i = arc_at(theta);
  return i == std::numeric_limits<std::size_t>::max() ? i : arcs_[i].disk;
}

std::vector<std::pair<std::size_t, std::size_t>> Skyline::arcs_per_disk() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::vector<std::size_t> disks;
  disks.reserve(arcs_.size());
  for (const Arc& a : arcs_) disks.push_back(a.disk);
  std::sort(disks.begin(), disks.end());
  for (std::size_t i = 0; i < disks.size();) {
    std::size_t j = i;
    while (j < disks.size() && disks[j] == disks[i]) ++j;
    out.emplace_back(disks[i], j - i);
    i = j;
  }
  return out;
}

double Skyline::radius_at(std::span<const geom::Disk> disks,
                          double theta) const noexcept {
  const std::size_t i = disk_at(theta);
  if (i == std::numeric_limits<std::size_t>::max() || i >= disks.size())
    return 0.0;
  return geom::radial_distance(disks[i], origin_, theta);
}

double Skyline::perimeter(std::span<const geom::Disk> disks) const {
  double length = 0.0;
  for (const Arc& a : arcs_) {
    const geom::Disk& d = disks[a.disk];
    if (a.span() >= kTwoPi - kAngleTol) {
      length += kTwoPi * d.radius;
      continue;
    }
    const geom::RadialDisk rd(d, origin_);
    const geom::Vec2 p0 = rd.boundary_point_at(a.start);
    const geom::Vec2 p1 = rd.boundary_point_at(a.end);
    const double psi0 = (p0 - d.center).angle();
    const double psi1 = (p1 - d.center).angle();
    length += d.radius * geom::ccw_span(psi0, psi1);
  }
  return length;
}

double Skyline::enclosed_area(std::span<const geom::Disk> disks) const {
  double area = 0.0;
  for (const Arc& a : arcs_) {
    area += geom::sector_area_under_disk(disks[a.disk], origin_, a.start, a.end);
  }
  return area;
}

std::vector<Arc> normalize_arcs(std::vector<Arc> arcs) {
  if (arcs.empty()) return arcs;
  std::sort(arcs.begin(), arcs.end(),
            [](const Arc& a, const Arc& b) { return a.start < b.start; });

  // Compact in place: `w` is one past the last kept arc.  The read cursor
  // is always >= w, so reads never see overwritten slots.
  std::size_t w = 0;
  for (std::size_t r = 0; r < arcs.size(); ++r) {
    Arc a = arcs[r];
    if (w > 0) a.start = arcs[w - 1].end;  // snap, kill drift
    if (a.end - a.start <= kAngleTol) {
      // Empty sliver: extend the previous arc over it instead.
      if (w > 0 && a.end > arcs[w - 1].end) arcs[w - 1].end = a.end;
      continue;
    }
    if (w > 0 && arcs[w - 1].disk == a.disk) {
      arcs[w - 1].end = a.end;  // coalesce same-disk neighbors (Merge Step 3)
    } else {
      arcs[w++] = a;
    }
  }
  if (w > 0) {
    arcs.front().start = 0.0;
    arcs[w - 1].end = kTwoPi;
    // Snapping the last endpoint may create a sliver-free list already; the
    // front/back adjustments preserve contiguity by construction.
  }
  arcs.resize(w);
  MLDCS_DCHECK_OK(check_arc_list(arcs));
  return arcs;
}

}  // namespace mldcs::core
