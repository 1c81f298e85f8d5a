#include "core/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/skyline_reference.hpp"
#include "geometry/angle.hpp"
#include "geometry/radial.hpp"
#include "geometry/tolerance.hpp"

namespace mldcs::core {

using geom::kTwoPi;

double max_radial_error(const Skyline& sky, std::span<const geom::Disk> disks,
                        std::size_t samples) {
  double worst = 0.0;
  for (std::size_t k = 0; k < samples; ++k) {
    const double theta =
        kTwoPi * static_cast<double>(k) / static_cast<double>(samples);
    const double truth = geom::radial_envelope(disks, sky.origin(), theta);
    const double got = sky.radius_at(disks, theta);
    worst = std::max(worst, std::fabs(truth - got));
  }
  return worst;
}

bool is_disk_cover_set(std::span<const std::size_t> subset,
                       std::span<const geom::Disk> disks, geom::Vec2 o,
                       std::size_t samples, double tol) {
  std::vector<geom::Disk> chosen;
  chosen.reserve(subset.size());
  for (std::size_t i : subset) {
    if (i >= disks.size()) return false;
    chosen.push_back(disks[i]);
  }
  for (std::size_t k = 0; k < samples; ++k) {
    const double theta =
        kTwoPi * static_cast<double>(k) / static_cast<double>(samples);
    const double full = geom::radial_envelope(disks, o, theta);
    const double sub = geom::radial_envelope(chosen, o, theta);
    if (sub < full - tol) return false;
  }
  return true;
}

std::optional<geom::Vec2> exclusive_coverage_witness(
    const Skyline& sky, std::span<const geom::Disk> disks, std::size_t i) {
  for (const Arc& a : sky.arcs()) {
    if (a.disk != i) continue;
    // Interior point of the arc, pulled slightly toward the relay so it is
    // strictly inside disk i.  By the Theorem 3 argument, a small enough
    // nudge escapes every other disk; we search a few shrinking nudges and
    // verify explicitly.
    const double theta = a.mid();
    const double rho = geom::radial_distance(disks[i], sky.origin(), theta);
    for (double nudge : {1e-7, 1e-9, 1e-11}) {
      const geom::Vec2 p =
          sky.origin() + (rho * (1.0 - nudge)) * geom::unit_at(theta);
      bool exclusive = disks[i].contains(p, 0.0);
      for (std::size_t j = 0; exclusive && j < disks.size(); ++j) {
        if (j != i && disks[j].contains(p, 0.0)) exclusive = false;
      }
      if (exclusive) return p;
    }
  }
  return std::nullopt;
}

std::string verify_skyline(const Skyline& sky,
                           std::span<const geom::Disk> disks) {
  std::string err = check_arc_list(sky.arcs(), disks.size());
  if (!err.empty()) return err;
  if (sky.empty()) {
    return disks.empty() ? std::string{}
                         : "skyline empty but disk set is not";
  }
  std::ostringstream msg;
  const auto arcs = sky.arcs();
  if (arcs.size() > 2 * disks.size()) {
    msg << arcs.size() << " arcs exceed the Lemma 8 bound of 2n = "
        << 2 * disks.size() << " for " << disks.size() << " disks";
    return msg.str();
  }
  for (std::size_t k = 0; k < arcs.size(); ++k) {
    const Arc& a = arcs[k];
    // The arc's disk must be (one of) the outermost at the midpoint: a
    // kept disk whose arc is strictly below the envelope contributes no
    // boundary there, and Theorem 3 no longer certifies it as necessary.
    const double mid = a.mid();
    const double mine = geom::radial_distance(disks[a.disk], sky.origin(), mid);
    const double best = geom::radial_envelope(disks, sky.origin(), mid);
    if (mine < best - 1e-7) {
      msg << "arc " << k << " (" << a << ") is not on the envelope at its"
          << " midpoint: rho=" << mine << " < envelope=" << best;
      return msg.str();
    }
    // Radial continuity across the shared endpoint with the next arc.
    if (k + 1 < arcs.size()) {
      const Arc& b = arcs[k + 1];
      const double ra = geom::radial_distance(disks[a.disk], sky.origin(), a.end);
      const double rb =
          geom::radial_distance(disks[b.disk], sky.origin(), b.start);
      if (std::fabs(ra - rb) > 1e-6) {
        msg << "radial discontinuity " << std::fabs(ra - rb) << " between arc "
            << k << " and arc " << k + 1 << " at angle " << a.end;
        return msg.str();
      }
    }
  }
  // Closure across the 0 / 2*pi seam.
  const double r0 =
      geom::radial_distance(disks[arcs.front().disk], sky.origin(), 0.0);
  const double r1 =
      geom::radial_distance(disks[arcs.back().disk], sky.origin(), kTwoPi);
  if (std::fabs(r0 - r1) > 1e-6) {
    msg << "radial discontinuity " << std::fabs(r0 - r1)
        << " across the 0/2*pi seam";
    return msg.str();
  }
  return {};
}

std::string describe_local_set_violation(std::span<const geom::Disk> disks,
                                         geom::Vec2 o) {
  if (!std::isfinite(o.x) || !std::isfinite(o.y)) {
    return "relay position is not finite";
  }
  for (std::size_t i = 0; i < disks.size(); ++i) {
    const geom::Disk& d = disks[i];
    std::ostringstream msg;
    if (!std::isfinite(d.center.x) || !std::isfinite(d.center.y) ||
        !std::isfinite(d.radius)) {
      msg << "disk " << i << " has non-finite center or radius";
      return msg.str();
    }
    if (d.radius < 0.0) {
      msg << "disk " << i << " has negative radius " << d.radius;
      return msg.str();
    }
    if (!d.contains(o)) {
      msg << "disk " << i << " = " << d
          << " does not contain the relay position " << o
          << " (distance " << geom::distance(d.center, o)
          << " > radius " << d.radius
          << "): not a local disk set";
      return msg.str();
    }
  }
  return {};
}

std::string check_arc_list(std::span<const Arc> arcs, std::size_t n_disks) {
  if (arcs.empty()) return {};
  std::ostringstream msg;
  // mldcs-analyze:allow(tolerance-audit): exact +x-axis split convention
  if (arcs.front().start != 0.0) {
    msg << "first arc starts at " << arcs.front().start
        << " instead of 0 (the +x-axis split convention)";
    return msg.str();
  }
  if (!geom::approx_equal(arcs.back().end, kTwoPi, geom::kAngleTol)) {
    msg << "last arc ends at " << arcs.back().end
        << " instead of 2*pi: no cyclic closure at the relay seam";
    return msg.str();
  }
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const Arc& a = arcs[i];
    if (!(a.start < a.end)) {
      msg << "arc " << i << " (" << a << ") is inverted or empty";
      return msg.str();
    }
    if (a.span() <= geom::kAngleTol) {
      msg << "arc " << i << " (" << a << ") has sub-tolerance span "
          << a.span() << " <= kAngleTol = " << geom::kAngleTol
          << ": slivers must be coalesced by normalize_arcs";
      return msg.str();
    }
    if (a.disk >= n_disks) {
      msg << "arc " << i << " (" << a << ") references disk " << a.disk
          << " outside the local set of " << n_disks << " disks";
      return msg.str();
    }
    if (i + 1 < arcs.size()) {
      // Endpoints must be shared doubles bit-for-bit; approximate
      // contiguity here would mask drift.
      // mldcs-analyze:allow(tolerance-audit): exact contiguity by design
      if (arcs[i + 1].start != a.end) {
        msg << "arcs " << i << " and " << i + 1 << " are not exactly "
            << "contiguous: " << a.end << " vs " << arcs[i + 1].start
            << " (endpoints must be shared doubles, no drift)";
        return msg.str();
      }
      if (arcs[i + 1].disk == a.disk) {
        msg << "arcs " << i << " and " << i + 1 << " both come from disk "
            << a.disk << ": Merge Step 3 must coalesce same-disk neighbors";
        return msg.str();
      }
    }
  }
  return {};
}

std::string check_skyline_minimality(const Skyline& sky,
                                     std::span<const geom::Disk> disks) {
  std::string err = verify_skyline(sky, disks);
  if (!err.empty() || sky.empty()) return err;
  std::ostringstream msg;
  const Skyline reference = compute_skyline_bruteforce(disks, sky.origin());
  const std::vector<std::size_t> got = sky.skyline_set();
  const std::vector<std::size_t> want = reference.skyline_set();
  if (got != want) {
    msg << "skyline set diverges from the brute-force reference: got {";
    for (std::size_t i : got) msg << ' ' << i;
    msg << " } want {";
    for (std::size_t i : want) msg << ' ' << i;
    msg << " } — a degeneracy was resolved on different sides";
    return msg.str();
  }
  constexpr double kAreaTol = 1e-7;
  const double got_area = sky.enclosed_area(disks);
  const double want_area = reference.enclosed_area(disks);
  if (std::abs(got_area - want_area) > kAreaTol) {
    msg << "enclosed union area " << got_area
        << " differs from the brute-force reference " << want_area << " by "
        << std::abs(got_area - want_area) << " > " << kAreaTol
        << ": coverage was lost or gained";
    return msg.str();
  }
  return {};
}

}  // namespace mldcs::core
