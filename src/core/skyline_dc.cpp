#include "core/skyline_dc.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include <cmath>

#include "core/invariants.hpp"
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
  // Lemma 8: any level's concatenated partial skylines total <= 2n arcs
  // (each partial skyline of k disks has <= 2k arcs); Merge's raw Step-2
  // output before coalescing stays within the same constant factor.
  lev_cur_.reserve(n_disks);
  lev_next_.reserve(n_disks);
  scratch_.reserve(n_disks);
  soa_.reserve(n_disks);
  zeros_.reserve(n_disks);
  sector_max_.reserve(geom::simd::kSectors * geom::DiskSoA::padded(n_disks));
  keep_.reserve(geom::DiskSoA::padded(n_disks));
  live_.reserve(n_disks);
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
  MLDCS_DCHECK_OK(check_local_disk_premise(disks, o));

  const geom::simd::SkylineKernels& kernels = geom::simd::active_kernels();

  // Sector-bound prefilter (simd.hpp SectorBoundFn): one linear pass
  // bounds every disk's radial function over kSectors fixed sectors and
  // drops the disks that trail the envelope's lower bound by more than
  // kEnvelopeMargin in every sector.  Such a disk owns no skyline arc
  // (Theorem 3), so it skips the merge levels entirely; at the paper's
  // U[1,2] density about 13 of a relay's 34 disks remain.  Survivors keep
  // input order, so the merge tree depends only on the input.
  ws.soa_.assign(disks);
  const std::size_t n_pad = geom::DiskSoA::padded(n);
  ws.sector_max_.resize(geom::simd::kSectors * n_pad);
  ws.keep_.resize(n_pad);
  kernels.sector_bound(n, ws.soa_.cx.data(), ws.soa_.cy.data(),
                       ws.soa_.r.data(), o.x, o.y, kEnvelopeMargin,
                       ws.sector_max_.data(), ws.keep_.data());
  ws.live_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (ws.keep_[i] != 0) ws.live_.push_back(static_cast<std::uint32_t>(i));
  }
  ws.soa_.retain(ws.keep_.data());
  const std::size_t n_live = ws.live_.size();
  if (stats != nullptr) stats->survivors += n_live;

  // Live-local ids from here on.  Each live disk's zero-transition cuts
  // are nonempty only when the relay sits exactly on the disk's boundary;
  // they are hoisted out of the merge levels so resolve-time span work
  // never calls libm for them.
  ws.zeros_.assign(n_live);
  for (std::size_t i = 0; i < n_live; ++i) {
    const geom::Disk& d = disks[ws.live_[i]];
    const double r = d.radius;
    const double d2 = geom::distance2(d.center, o);
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

  // Level 0: every surviving disk's boundary is one full-circle arc, split
  // at the +x axis by convention (starts-only: start 0.0, unit (1, 0)),
  // written as flat fills — skyline i is exactly arc i.  Even levels live
  // in lev_cur_ and odd levels in lev_next_ on every call (the pointers
  // trade places, the buffers do not), so each buffer grows to what its
  // levels need and one warm-up call is enough for the next.
  detail::LevelSoA* cur = &ws.lev_cur_;
  detail::LevelSoA* next = &ws.lev_next_;
  cur->start.assign(n_live, 0.0);
  cur->ux.assign(n_live, 1.0);
  cur->uy.assign(n_live, 0.0);
  cur->disk.resize(n_live);
  std::iota(cur->disk.begin(), cur->disk.end(), 0u);
  cur->bounds.resize(n_live + 1);
  std::iota(cur->bounds.begin(), cur->bounds.end(), 0u);

  // Bottom-up passes: merge adjacent pairs until one skyline remains.  An
  // odd tail skyline is carried to the next level verbatim, so the merge
  // tree has the same O(log n) depth as the recursive halving and every
  // disk goes through O(log n) Merges (Theorem 9's bound).  Each level is
  // one call: the batched Merge accumulates geometry tasks across every
  // pair of the level before handing them to the SIMD kernels, keeping
  // lanes full even when individual partial skylines are short.
  std::uint64_t levels = 0;
  std::size_t level_arcs_max = cur->start.size();
  std::size_t count = n_live;
  while (count > 1) {
    detail::merge_level_batched(*cur, *next, ws.soa_, o, ws.zeros_, kernels,
                                ws.scratch_, stats);
    if (count % 2 == 1) {
      const std::uint32_t t0 = cur->bounds[count - 1];
      const std::uint32_t t1 = cur->bounds[count];
      for (std::uint32_t k = t0; k < t1; ++k) {
        next->push(cur->start[k], cur->ux[k], cur->uy[k], cur->disk[k]);
      }
      next->close_skyline();
    }
    std::swap(cur, next);
    count = cur->skylines();
    ++levels;
    level_arcs_max = std::max(level_arcs_max, cur->start.size());
  }

  // Starts-only to Arc conversion: endpoints are shared doubles by
  // construction, and live-local disk ids map back to input positions.
  const std::size_t n_arcs = cur->start.size();
  for (std::size_t k = 0; k < n_arcs; ++k) {
    const double end = (k + 1 < n_arcs) ? cur->start[k + 1] : geom::kTwoPi;
    out.push_back(Arc{cur->start[k], end,
                      static_cast<std::size_t>(ws.live_[cur->disk[k]])});
  }

  SkylineTelemetry& t = skyline_telemetry();
  t.calls.add();
  t.disks_in.add(n);
  t.prefilter_rejects.add(n - ws.live_.size());
  t.merge_levels.add(levels);
  t.level_arcs_hwm.set_max(static_cast<std::int64_t>(level_arcs_max));

  if constexpr (kInvariantChecksEnabled) {
    // The full Theorem 3 cross-check is O(n^2); keep it to inputs where the
    // brute-force reference is cheap so checked test runs stay fast.
    if (n <= kDeepCheckMaxDisks) {
      // mldcs-analyze:allow(hot-no-alloc): debug-only invariant cross-check
      const Skyline sky{o, std::vector<Arc>(out.begin(), out.end())};
      MLDCS_CHECK_OK(check_skyline_minimality(disks, sky));
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
