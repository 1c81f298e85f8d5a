#include "core/skyline_dc.hpp"

#include <algorithm>
#include <bit>
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

/// Margin for the dominated-disk prefilter.  If dist(u_i, u_j) + r_i <=
/// r_j - margin, every point of disk i's boundary lies >= margin inside
/// disk j, so disk i trails disk j's radial envelope by >= margin at every
/// angle.  With margin >> geom::kTol the dominated disk can never win a
/// Merge span even under tolerant comparisons, so dropping it leaves the
/// output bit-identical.  Disks closer than the margin to coincident or
/// internally tangent (duplicate_set, tangent_pair) are deliberately kept,
/// preserving the engine's tie-break behavior on degenerate inputs.
constexpr double kDominanceMargin = 1e-6;

/// Cap on containment tests per disk.  The prefilter scans potential
/// containers in radius-descending order; adversarial inputs (thousands of
/// disks in a narrow radius band, nothing dominated) would otherwise turn
/// it quadratic.  The cap only reduces pruning, never correctness.  16 is
/// enough to catch essentially all dominations in the paper's U[1,2]
/// deployments (containers much larger than the candidate sort first)
/// while keeping the worst-case scan on undominatable narrow-band inputs
/// to two lane blocks.
constexpr std::size_t kMaxDominanceChecks = 16;

/// Stable LSD byte-radix over the u64 keys of (key, index) pairs, skipping
/// bytes on which every key agrees — disks drawn from a narrow radius band
/// differ only in low mantissa bytes, so typically half the passes
/// survive.  Stability plus the index-ascending seed order makes
/// equal-radius ties resolve index-ascending without widening the sort
/// key.  Small inputs keep std::sort: the histograms only pay in bulk.
void sort_order_keys(
    std::vector<std::pair<std::uint64_t, std::uint32_t>>& v,
    std::vector<std::pair<std::uint64_t, std::uint32_t>>& alt) {
  const std::size_t n = v.size();
  if (n < 128) {
    std::sort(v.begin(), v.end());
    return;
  }
  std::uint64_t all_or = 0;
  std::uint64_t all_and = ~std::uint64_t{0};
  for (const auto& [key, idx] : v) {
    all_or |= key;
    all_and &= key;
  }
  const std::uint64_t differ = all_or & ~all_and;
  alt.resize(n);
  auto* src = &v;
  auto* dst = &alt;
  for (int b = 0; b < 64; b += 8) {
    if (((differ >> b) & 0xffu) == 0) continue;
    std::uint32_t hist[257] = {};
    for (const auto& [key, idx] : *src) ++hist[((key >> b) & 0xffu) + 1];
    for (int d = 0; d < 256; ++d) hist[d + 1] += hist[d];
    for (const auto& p : *src) (*dst)[hist[(p.first >> b) & 0xffu]++] = p;
    std::swap(src, dst);
  }
  if (src != &v) v.swap(alt);
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
  filt_.reserve(n_disks);
  zeros_.reserve(n_disks);
  order_.reserve(n_disks);
  order_alt_.reserve(n_disks);
  live_.reserve(n_disks);
  dom_.reserve(n_disks);
}

void SkylineWorkspace::clear() noexcept {
  lev_cur_ = {};
  lev_next_ = {};
  scratch_ = {};
  soa_ = {};
  filt_ = {};
  zeros_ = {};
  order_ = {};
  order_alt_ = {};
  live_ = {};
  dom_ = {};
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

  // Dominated-disk prefilter: a disk strictly inside another (by more than
  // kDominanceMargin) contributes no skyline arc, so it can skip the merge
  // levels entirely.  In the paper's heterogeneous deployments (radii
  // U[1,2], neighbors within min(r_u, r_v)) a large share of small disks
  // are swallowed by bigger neighbors, and each dropped disk saves O(log n)
  // Merge passes over its arcs.  Scanning containers largest-radius-first
  // lets each disk stop at the first disk too small to contain it; the
  // accepted containers live in a sentinel-padded DiskSoA so the batch
  // kernel tests a whole lane block per step with the verdict taken at the
  // lowest-index lane — identical to the sequential scan, cap included.
  // The scan order is an exact deterministic tie-break (radius descending,
  // then index ascending), not a geometric predicate — a tolerance here
  // would make the prefilter order (and thus the merge tree) input-noise
  // dependent.  Packed as one lexicographic (u64, u32) key: positive
  // finite doubles order by their bit patterns, so ~bits(radius) sorts
  // radius-descending exactly, and the sort never touches the disk array.
  ws.order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ws.order_[i] = {~std::bit_cast<std::uint64_t>(disks[i].radius),
                    static_cast<std::uint32_t>(i)};
  }
  sort_order_keys(ws.order_, ws.order_alt_);
  ws.filt_.assign_sentinels(n);
  ws.dom_.assign(n, 0);
  for (const auto& [key, idx] : ws.order_) {
    const geom::Disk& di = disks[idx];
    if (!kernels.prefilter_dominated(
            di.center.x, di.center.y, di.radius, ws.filt_.cx.data(),
            ws.filt_.cy.data(), ws.filt_.r.data(), ws.filt_.cx.size(),
            kDominanceMargin, static_cast<int>(kMaxDominanceChecks))) {
      ws.filt_.push(di.center.x, di.center.y, di.radius);
    } else {
      ws.dom_[idx] = 1;
    }
  }
  // Collect survivors in original disk order so the merge tree (and thus
  // the exact arc output) depends only on the input, not on the radius
  // sort — a linear verdict scan, where re-sorting the survivor list
  // would cost another n log n.
  ws.live_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (ws.dom_[i] == 0) ws.live_.push_back(static_cast<std::uint32_t>(i));
  }
  const std::size_t n_live = ws.live_.size();

  // Live disks in structure-of-arrays form (live-local ids from here on),
  // plus each disk's zero-transition cuts — nonempty only when the relay
  // sits exactly on the disk's boundary, hoisted out of the merge levels
  // so resolve-time span work never calls libm for them.
  ws.soa_.assign_subset(disks, ws.live_);
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
  // written as flat fills — skyline i is exactly arc i.
  ws.lev_cur_.start.assign(n_live, 0.0);
  ws.lev_cur_.ux.assign(n_live, 1.0);
  ws.lev_cur_.uy.assign(n_live, 0.0);
  ws.lev_cur_.disk.resize(n_live);
  std::iota(ws.lev_cur_.disk.begin(), ws.lev_cur_.disk.end(), 0u);
  ws.lev_cur_.bounds.resize(n_live + 1);
  std::iota(ws.lev_cur_.bounds.begin(), ws.lev_cur_.bounds.end(), 0u);

  // Bottom-up passes: merge adjacent pairs until one skyline remains.  An
  // odd tail skyline is carried to the next level verbatim, so the merge
  // tree has the same O(log n) depth as the recursive halving and every
  // disk goes through O(log n) Merges (Theorem 9's bound).  Each level is
  // one call: the batched Merge accumulates geometry tasks across every
  // pair of the level before handing them to the SIMD kernels, keeping
  // lanes full even when individual partial skylines are short.
  std::uint64_t levels = 0;
  std::size_t level_arcs_max = ws.lev_cur_.start.size();
  std::size_t count = n_live;
  while (count > 1) {
    detail::merge_level_batched(ws.lev_cur_, ws.lev_next_, ws.soa_, o,
                                ws.zeros_, kernels, ws.scratch_, stats);
    if (count % 2 == 1) {
      const std::uint32_t t0 = ws.lev_cur_.bounds[count - 1];
      const std::uint32_t t1 = ws.lev_cur_.bounds[count];
      for (std::uint32_t k = t0; k < t1; ++k) {
        ws.lev_next_.push(ws.lev_cur_.start[k], ws.lev_cur_.ux[k],
                          ws.lev_cur_.uy[k], ws.lev_cur_.disk[k]);
      }
      ws.lev_next_.close_skyline();
    }
    std::swap(ws.lev_cur_, ws.lev_next_);
    count = ws.lev_cur_.skylines();
    ++levels;
    level_arcs_max = std::max(level_arcs_max, ws.lev_cur_.start.size());
  }

  // Starts-only to Arc conversion: endpoints are shared doubles by
  // construction, and live-local disk ids map back to input positions.
  const std::size_t n_arcs = ws.lev_cur_.start.size();
  for (std::size_t k = 0; k < n_arcs; ++k) {
    const double end =
        (k + 1 < n_arcs) ? ws.lev_cur_.start[k + 1] : geom::kTwoPi;
    out.push_back(Arc{ws.lev_cur_.start[k], end,
                      static_cast<std::size_t>(
                          ws.live_[ws.lev_cur_.disk[k]])});
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

MLDCS_ALLOC_OK Skyline compute_skyline(std::span<const geom::Disk> disks,
                                       geom::Vec2 o, MergeStats* stats) {
  // One workspace per thread: every legacy call site becomes allocation-
  // free in steady state without signature changes.
  thread_local SkylineWorkspace tl_workspace;
  return compute_skyline(disks, o, tl_workspace, stats);
}

}  // namespace mldcs::core
