#include "core/skyline_dc.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include <cmath>

#include "core/invariants.hpp"
#include "core/validate.hpp"
#include "geometry/angle.hpp"
#include "geometry/radial.hpp"
#include "geometry/simd.hpp"
#include "geometry/tolerance.hpp"
#include "obs/scope.hpp"
#include "obs/telemetry.hpp"

namespace mldcs::core {

namespace {

/// Engine telemetry (docs/OBSERVABILITY.md).  References are hoisted once;
/// each compute_skyline_arcs call then costs a handful of relaxed atomic
/// adds — per *call*, never per arc, so the hard-regime single-relay
/// overhead stays within the perf suite's noise.
struct SkylineTelemetry {
  obs::Counter& calls = obs::registry().counter("skyline.calls");
  obs::Counter& disks_in = obs::registry().counter("skyline.disks_in");
  obs::Counter& prefilter_rejects =
      obs::registry().counter("skyline.prefilter_rejects");
  obs::Counter& merge_levels = obs::registry().counter("skyline.merge_levels");
  obs::Gauge& level_arcs_hwm =
      obs::registry().gauge("skyline.workspace_level_arcs_hwm");
};

SkylineTelemetry& skyline_telemetry() {
  static SkylineTelemetry t;
  return t;
}

}  // namespace

MLDCS_ALLOC_OK void SkylineWorkspace::reserve(std::size_t n_disks) {
  // Lemma 8: a level's partial skylines hold at most 2n arcs in total, so
  // a merge writes at most merge_output_bound(2n) arcs before coalescing.
  const std::size_t level_arcs = detail::merge_output_bound(
      2 * n_disks, detail::zero_cut_bound(n_disks));
  lev_odd_.reserve(level_arcs, n_disks);
  lev_even_.reserve(level_arcs, n_disks);
  scratch_.reserve(n_disks);
  soa_.reserve(n_disks);
  zeros_.reserve(n_disks);
  sector_max_.reserve(geom::simd::kSectors * geom::DiskSoA::padded(n_disks));
  keep_.reserve(geom::DiskSoA::padded(n_disks));
  live_.reserve(n_disks);
}

void SkylineWorkspace::fit(std::size_t n_disks) {
  if (n_disks <= fit_disks_) return;
  fit_disks_ = n_disks;
  const std::size_t n_pad = geom::DiskSoA::padded(n_disks);
  sector_max_.resize(geom::simd::kSectors * n_pad);
  keep_.resize(n_pad);
  live_.resize(n_disks);
  zeros_.fit(n_disks);
}

MLDCS_HOT_PATH MLDCS_NO_LOCK void compute_skyline_arcs(
    std::span<const geom::Disk> disks, geom::Vec2 o, SkylineWorkspace& ws,
    std::vector<Arc>& out, MergeStats* stats) {
  // Innermost tag wins: samples landing here attribute to the kernel even
  // when reached through cache_recompute (the enclosing scope restores).
  const obs::Scope scope(obs::Phase::kSimdKernel);
  out.clear();
  const std::size_t n = disks.size();
  if (n == 0) return;
  MLDCS_DCHECK_OK(describe_local_set_violation(disks, o));

  const geom::simd::SkylineKernels& kernels = geom::simd::active_kernels();
  ws.fit(n);

  // Sector-bound prefilter (simd.hpp SectorBoundFn): one linear pass
  // bounds every disk's radial function over kSectors fixed sectors and
  // drops the disks that trail the envelope's lower bound by more than
  // kEnvelopeMargin in every sector.  Such a disk owns no skyline arc
  // (Theorem 3), so it skips the merge levels entirely; at the paper's
  // U[1,2] density about 13 of a relay's 34 disks remain.  Survivors keep
  // input order, so the merge tree depends only on the input.
  ws.soa_.assign(disks);
  kernels.sector_bound(n, ws.soa_.cx.data(), ws.soa_.cy.data(),
                       ws.soa_.r.data(), o.x, o.y, kEnvelopeMargin,
                       ws.sector_max_.data(), ws.keep_.data());
  const std::size_t n_live = ws.soa_.retain(ws.keep_.data(), ws.live_.data());
  if (stats != nullptr) stats->survivors += n_live;

  // Live-local ids from here on.  Each live disk's zero-transition cuts
  // are nonempty only when the relay sits exactly on the disk's boundary;
  // they are hoisted out of the merge levels so resolve-time span work
  // never calls libm for them.
  ws.zeros_.any = false;
  for (std::size_t i = 0; i < n_live; ++i) {
    const geom::Disk& d = disks[ws.live_[i]];
    const double r = d.radius;
    const double d2 = geom::distance2(d.center, o);
    ws.zeros_.count[i] = 0;
    // |d - r| <= kTol implies |d^2 - r^2| <= kTol (2r + kTol); rule the
    // common strictly-interior case out without a sqrt.
    if (std::fabs(d2 - r * r) > geom::kTol * (2.0 * r + 1.0)) continue;
    double zs[2];
    const int nz = geom::radial_zero_transitions(d, o, zs);
    ws.zeros_.count[i] = static_cast<std::uint8_t>(nz);
    if (nz > 0) {
      ws.zeros_.any = true;
      const geom::Vec2 u0 = geom::unit_at(zs[0]);
      ws.zeros_.ang0[i] = zs[0];
      ws.zeros_.ux0[i] = u0.x;
      ws.zeros_.uy0[i] = u0.y;
    }
    if (nz > 1) {
      const geom::Vec2 u1 = geom::unit_at(zs[1]);
      ws.zeros_.ang1[i] = zs[1];
      ws.zeros_.ux1[i] = u1.x;
      ws.zeros_.uy1[i] = u1.y;
    }
  }

  // Bottom-up passes: merge adjacent pairs until one skyline remains.
  // Level 0 — every surviving disk's boundary as one full-circle arc,
  // split at the +x axis by convention (start 0.0, unit (1, 0)) — is
  // implicit: the first merge reads the live disks directly.  An odd tail
  // skyline is carried to the next level verbatim, so the merge tree has
  // the same O(log n) depth as the recursive halving and every disk goes
  // through O(log n) Merges (Theorem 9's bound).  Each level is one call:
  // the batched Merge accumulates geometry tasks across every pair of the
  // level before handing them to the SIMD kernels, keeping lanes full
  // even when individual partial skylines are short.  Odd levels land in
  // lev_odd_ and even ones in lev_even_ on every call, so each buffer
  // grows to what its levels need and one warm-up call is enough for the
  // next.
  const detail::LevelSoA* cur = nullptr;
  std::uint64_t levels = 0;
  std::size_t level_arcs_max = n_live;
  for (std::size_t count = n_live; count > 1; count = cur->skylines) {
    ++levels;
    detail::LevelSoA& next = levels % 2 == 1 ? ws.lev_odd_ : ws.lev_even_;
    detail::merge_level_batched(cur, next, ws.soa_, o, ws.zeros_, kernels,
                                ws.scratch_, stats);
    cur = &next;
    level_arcs_max = std::max(level_arcs_max, next.arcs);
  }

  // Starts-only to Arc conversion: endpoints are shared doubles by
  // construction, and live-local disk ids map back to input positions.
  // With no merge level, the one live disk owns the full circle.
  if (cur == nullptr) {
    for (std::size_t i = 0; i < n_live; ++i) {
      out.push_back(Arc{0.0, geom::kTwoPi, ws.live_[i]});
    }
  } else {
    const std::size_t n_arcs = cur->arcs;
    for (std::size_t k = 0; k < n_arcs; ++k) {
      const double end = (k + 1 < n_arcs) ? cur->start[k + 1] : geom::kTwoPi;
      out.push_back(Arc{cur->start[k], end,
                        static_cast<std::size_t>(ws.live_[cur->disk[k]])});
    }
  }

  SkylineTelemetry& t = skyline_telemetry();
  t.calls.add();
  t.disks_in.add(n);
  t.prefilter_rejects.add(n - n_live);
  t.merge_levels.add(levels);
  t.level_arcs_hwm.set_max(static_cast<std::int64_t>(level_arcs_max));

  if constexpr (kInvariantChecksEnabled) {
    // The Theorem 3 oracle costs what its brute-force reference costs
    // (validate.hpp); keep it to inputs where that is cheap so checked
    // test runs stay fast.
    if (n <= kDeepCheckMaxDisks) {
      // mldcs-analyze:allow(hot-no-alloc): debug-only invariant cross-check
      const Skyline sky{o, std::vector<Arc>(out.begin(), out.end())};
      MLDCS_CHECK_OK(check_skyline_minimality(sky, disks));
    }
  }
}

MLDCS_ALLOC_OK Skyline compute_skyline(std::span<const geom::Disk> disks,
                                       geom::Vec2 o, SkylineWorkspace& ws,
                                       MergeStats* stats) {
  std::vector<Arc> arcs;
  compute_skyline_arcs(disks, o, ws, arcs, stats);
  return Skyline{o, std::move(arcs)};
}

}  // namespace mldcs::core
