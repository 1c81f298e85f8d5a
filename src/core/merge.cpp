#include "core/merge.hpp"

#include "core/skyline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "core/invariants.hpp"
#include "core/validate.hpp"
#include "geometry/angle.hpp"
#include "geometry/circle_intersect.hpp"
#include "geometry/radial.hpp"
#include "geometry/tolerance.hpp"

namespace mldcs::core {

using geom::kAngleTol;
using geom::kTwoPi;

namespace {

/// Radial distance rho(theta) with the ray direction passed as a unit
/// vector: rho = dot(rel, u) + sqrt(r^2 - cross(rel, u)^2), where
/// rel = center - o.  Since dot(rel, u) = d cos(theta - phi) and
/// cross(rel, u) = d sin(theta - phi), this is RadialDisk::radius_at
/// term for term — but one sincos shared by both disks replaces a
/// norm/atan2/sin/cos chain per disk, and this comparison is the hot
/// operation of Merge (once per emitted sub-span).
double radial_distance_along(const geom::Disk& d, geom::Vec2 o,
                             geom::Vec2 u) noexcept {
  const geom::Vec2 rel = d.center - o;
  const double across = rel.cross(u);
  const double radicand = d.radius * d.radius - across * across;
  return rel.dot(u) + std::sqrt(geom::clamp(radicand, 0.0, radicand));
}

}  // namespace

std::size_t outer_disk_at(std::span<const geom::Disk> disks, geom::Vec2 o,
                          double theta, std::size_t i, std::size_t j) noexcept {
  const geom::Vec2 u = geom::unit_at(theta);
  const double ri = radial_distance_along(disks[i], o, u);
  const double rj = radial_distance_along(disks[j], o, u);
  if (ri > rj + geom::kTol) return i;
  if (rj > ri + geom::kTol) return j;
  // Radial tie: prefer the larger disk radius, then the smaller index, so
  // every algorithm in the library resolves degeneracies identically.
  if (disks[i].radius > disks[j].radius + geom::kTol) return i;
  if (disks[j].radius > disks[i].radius + geom::kTol) return j;
  return std::min(i, j);
}

namespace {

/// Resolve one aligned span [alpha, beta] on which skyline 1 shows disk `i`
/// and skyline 2 shows disk `j` (paper Merge Step 2, Cases 1-3).  Appends
/// the winning arcs to `out`.
void resolve_span(double alpha, double beta, std::size_t i, std::size_t j,
                  std::span<const geom::Disk> disks, geom::Vec2 o,
                  std::vector<Arc>& out, MergeStats* stats) {
  if (i == j) {
    out.push_back({alpha, beta, i});
    return;
  }

  // Sub-breakpoints: angles (at o) of the circle-circle intersection points
  // that fall strictly inside (alpha, beta).  Because o is inside both
  // disks, a point p lies on both boundaries iff the two radial functions
  // agree at theta = angle(p - o) — so these are exactly the transversal
  // crossings of the two arcs.  Degenerate extra: when o sits exactly ON a
  // disk boundary, that disk's rho is 0 on a half circle and the winner can
  // also flip at its zero-transition angles (which are not intersection
  // points); those are added as cut candidates too.
  std::array<double, 6> cuts{};
  std::size_t n_cuts = 0;
  const auto add_cut = [&](geom::Vec2 p) {
    if (geom::distance2(p, o) <= geom::kTol * geom::kTol) return;  // p == o
    const double ang = geom::normalize_angle((p - o).angle());
    if (ang > alpha + kAngleTol && ang < beta - kAngleTol) {
      MLDCS_CHECK(n_cuts < cuts.size(),
                  "cut buffer overflow at angle " << ang << " on span ["
                                                  << alpha << ", " << beta
                                                  << "] for disks " << i
                                                  << "/" << j);
      cuts[n_cuts++] = ang;
    }
  };
  const auto isect =
      geom::intersect_circles(disks[i], disks[j], geom::kTol);
  if (stats != nullptr) ++stats->circle_intersections;
  if (isect.relation != geom::CircleRelation::kCoincident) {
    for (int k = 0; k < isect.count; ++k) {
      add_cut(isect.points[static_cast<std::size_t>(k)]);
    }
  }
  // (Coincident circles never cross transversally; the tie-break inside
  // outer_disk_at picks one of them for the whole span.)
  for (const std::size_t disk : {i, j}) {
    // Zero transitions exist only when o sits ON the disk's boundary
    // (|d - r| <= kTol).  Rule the common strictly-interior case out
    // without a sqrt: |d - r| <= kTol implies
    // |d^2 - r^2| = |d - r| (d + r) <= kTol (2r + kTol).
    const double r = disks[disk].radius;
    const double d2 = geom::distance2(disks[disk].center, o);
    if (std::fabs(d2 - r * r) > geom::kTol * (2.0 * r + 1.0)) continue;
    double zeros[2];
    const int nz = geom::radial_zero_transitions(disks[disk], o, zeros);
    for (int k = 0; k < nz; ++k) {
      if (zeros[k] > alpha + kAngleTol && zeros[k] < beta - kAngleTol) {
        MLDCS_CHECK(n_cuts < cuts.size(),
                    "cut buffer overflow at zero-transition "
                        << zeros[k] << " of disk " << disk);
        cuts[n_cuts++] = zeros[k];
      }
    }
  }
  // Tiny insertion sort: n_cuts <= 6, and GCC 12's -Warray-bounds trips on
  // std::sort's insertion threshold for small fixed arrays.
  for (std::size_t a = 1; a < n_cuts; ++a) {
    const double v = cuts[a];
    std::size_t b = a;
    while (b > 0 && cuts[b - 1] > v) {
      cuts[b] = cuts[b - 1];
      --b;
    }
    cuts[b] = v;
  }

  double lo = alpha;
  for (std::size_t k = 0; k <= n_cuts; ++k) {
    const double hi = (k == n_cuts) ? beta : cuts[k];
    if (hi - lo > kAngleTol) {
      const std::size_t winner =
          outer_disk_at(disks, o, 0.5 * (lo + hi), i, j);
      out.push_back({lo, hi, winner});
      if (stats != nullptr) ++stats->arcs_emitted;
    }
    lo = hi;
  }
}

}  // namespace

std::vector<Arc> merge_skylines(std::span<const Arc> sl1,
                                std::span<const Arc> sl2,
                                std::span<const geom::Disk> disks,
                                geom::Vec2 o, MergeStats* stats) {
  if (sl1.empty()) return {sl2.begin(), sl2.end()};
  if (sl2.empty()) return {sl1.begin(), sl1.end()};
  // Both inputs must already be full well-formed skylines over [0, 2*pi];
  // Merge's lockstep walk silently derails on anything less.
  MLDCS_DCHECK_OK(check_arc_list(sl1, disks.size()));
  MLDCS_DCHECK_OK(check_arc_list(sl2, disks.size()));

  // Step 1 (refinement): the union of both breakpoint sequences, deduped.
  std::vector<double> breaks;
  breaks.reserve(sl1.size() + sl2.size() + 1);
  for (const Arc& a : sl1) breaks.push_back(a.start);
  for (const Arc& a : sl2) breaks.push_back(a.start);
  breaks.push_back(kTwoPi);
  std::sort(breaks.begin(), breaks.end());
  breaks.erase(std::unique(breaks.begin(), breaks.end(),
                           [](double a, double b) {
                             return b - a <= kAngleTol;
                           }),
               breaks.end());
  if (breaks.front() > kAngleTol) breaks.insert(breaks.begin(), 0.0);
  else breaks.front() = 0.0;
  breaks.back() = kTwoPi;

  // Step 2: walk both arc lists in lockstep over the refined spans,
  // collecting raw (possibly fragmented) arcs.
  std::vector<Arc> out;
  std::size_t p1 = 0;
  std::size_t p2 = 0;
  for (std::size_t k = 0; k + 1 < breaks.size(); ++k) {
    const double alpha = breaks[k];
    const double beta = breaks[k + 1];
    const double mid = 0.5 * (alpha + beta);
    while (p1 + 1 < sl1.size() && sl1[p1].end <= mid) ++p1;
    while (p2 + 1 < sl2.size() && sl2[p2].end <= mid) ++p2;
    if (stats != nullptr) ++stats->spans;
    resolve_span(alpha, beta, sl1[p1].disk, sl2[p2].disk, disks, o, out,
                 stats);
  }

  // Step 3: coalesce neighboring same-disk arcs and restore the invariants.
  return normalize_arcs(std::move(out));
}

namespace detail {

MLDCS_ALLOC_OK void LevelSoA::reserve(std::size_t n_disks) {
  // Lemma 8: a level's concatenated partial skylines hold <= 2n arcs.
  const std::size_t cap = 2 * n_disks + 8;
  start.reserve(cap);
  ux.reserve(cap);
  uy.reserve(cap);
  disk.reserve(cap);
  bounds.reserve(n_disks + 1);
}

MLDCS_ALLOC_OK void ZeroCutTable::reserve(std::size_t n_disks) {
  count.reserve(n_disks);
  ang0.reserve(n_disks);
  ang1.reserve(n_disks);
  ux0.reserve(n_disks);
  uy0.reserve(n_disks);
  ux1.reserve(n_disks);
  uy1.reserve(n_disks);
}

MLDCS_ALLOC_OK void MergeLevelScratch::reserve(std::size_t n_disks) {
  // A level has <= 2n arcs (Lemma 8), so <= 2n + n/2 refined spans (one
  // extra closing span per pair), each spawning <= 7 sub-span evaluations
  // in the worst degenerate case but ~1.5 in practice.  These are warm-up
  // reservations, not bounds: the vectors may still grow on extreme inputs
  // (caller-owned scratch, steady state after one call of a given size).
  const std::size_t spans = 3 * n_disks + geom::simd::kBatchPad;
  const std::size_t evals = 4 * n_disks + geom::simd::kBatchPad;
  for (auto* v : {&sp_alpha, &sp_beta, &sp_uax, &sp_uay, &sp_ubx, &sp_uby}) {
    v->reserve(spans);
  }
  for (auto* v : {&sp_ia, &sp_ib, &sp_pair}) v->reserve(spans);
  for (auto* v : {&g_ax, &g_ay, &g_ar, &g_bx, &g_by, &g_br}) {
    v->reserve(evals);
  }
  for (auto* v : {&iv0x, &iv0y, &iv1x, &iv1y, &s_da, &s_db, &s_ss}) {
    v->reserve(spans);
  }
  iacc.reserve(spans);
  for (auto* v : {&cvx, &cvy, &cang, &cux, &cuy}) v->reserve(spans);
  cspan.reserve(spans);
  for (auto* v : {&zang, &zux, &zuy}) v->reserve(n_disks);
  zspan.reserve(n_disks);
  for (auto* v :
       {&e_sx, &e_sy, &e_lo, &e_loux, &e_louy, &e_da, &e_db, &e_ss}) {
    v->reserve(evals);
  }
  e_span.reserve(evals);
}

namespace {

/// Grow-only resize for kernel scratch: arrays keep their high-water size
/// across levels, so kernel *output* buffers are never redundantly
/// value-initialized (a plain resize-from-cleared zero-fills every lane).
template <typename T>
inline void ensure_size(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

}  // namespace

MLDCS_HOT_PATH MLDCS_NO_LOCK void merge_level_batched(
    const LevelSoA& cur, LevelSoA& next, const geom::DiskSoA& soa,
    geom::Vec2 o, const ZeroCutTable& zeros,
    const geom::simd::SkylineKernels& kernels, MergeLevelScratch& ms,
    MergeStats* stats) {
  const std::size_t n_pairs = cur.skylines() / 2;
  const double tol2 = geom::kTol * geom::kTol;
  const double* const soa_cx = soa.cx.data();
  const double* const soa_cy = soa.cy.data();
  const double* const soa_r = soa.r.data();

  // ---- Pass A (scalar): refine each pair's breakpoints into aligned
  // spans (Merge Step 1) and gather the circle-intersection batch.  All
  // scratch writes go through raw cursors into grow-only arrays — the
  // span count is bounded by the level's arc count (every span starts at
  // a kept breakpoint; a pair keeps at most arcs_a + arcs_b - 1 of them
  // since 0.0 is shared) plus one closing span per pair. ----
  const std::size_t spans_cap =
      geom::DiskSoA::padded(cur.start.size() + n_pairs + 1);
  for (auto* v : {&ms.sp_alpha, &ms.sp_beta, &ms.sp_uax, &ms.sp_uay,
                  &ms.sp_ubx, &ms.sp_uby, &ms.g_ax, &ms.g_ay, &ms.g_ar,
                  &ms.g_bx, &ms.g_by, &ms.g_br, &ms.iv0x, &ms.iv0y,
                  &ms.iv1x, &ms.iv1y, &ms.s_da, &ms.s_db, &ms.s_ss}) {
    ensure_size(*v, spans_cap);
  }
  for (auto* v : {&ms.sp_ia, &ms.sp_ib, &ms.sp_pair}) {
    ensure_size(*v, spans_cap);
  }
  ensure_size(ms.iacc, spans_cap);
  double* const sp_alpha = ms.sp_alpha.data();
  double* const sp_beta = ms.sp_beta.data();
  double* const sp_uax = ms.sp_uax.data();
  double* const sp_uay = ms.sp_uay.data();
  double* const sp_ubx = ms.sp_ubx.data();
  double* const sp_uby = ms.sp_uby.data();
  std::uint32_t* const sp_ia = ms.sp_ia.data();
  std::uint32_t* const sp_ib = ms.sp_ib.data();
  std::uint32_t* const sp_pair = ms.sp_pair.data();
  const double* const cs = cur.start.data();
  const double* const cux = cur.ux.data();
  const double* const cuy = cur.uy.data();
  const std::uint32_t* const cdisk = cur.disk.data();
  std::size_t ns = 0;
  {
    double* const g_ax = ms.g_ax.data();
    double* const g_ay = ms.g_ay.data();
    double* const g_ar = ms.g_ar.data();
    double* const g_bx = ms.g_bx.data();
    double* const g_by = ms.g_by.data();
    double* const g_br = ms.g_br.data();
    for (std::size_t pr = 0; pr < n_pairs; ++pr) {
      const std::size_t a1 = cur.bounds[2 * pr + 1];
      const std::size_t b1 = cur.bounds[2 * pr + 2];
      // Arc cursors (legacy lockstep: advance while the arc ends at or
      // before the span midpoint) and breakpoint cursors.  Both skylines
      // start at exactly 0.0; that shared break seeds the walk.
      std::size_t pa = cur.bounds[2 * pr];
      std::size_t pb = a1;
      std::size_t qa = pa + 1;
      std::size_t qb = pb + 1;
      double last = 0.0;
      double last_ux = 1.0;
      double last_uy = 0.0;

      const auto emit_span = [&](double alpha, double aux, double auy,
                                 double beta, double bux, double buy) {
        const double mid = 0.5 * (alpha + beta);
        while (pa + 1 < a1 && cs[pa + 1] <= mid) ++pa;
        while (pb + 1 < b1 && cs[pb + 1] <= mid) ++pb;
        const std::uint32_t ia = cdisk[pa];
        const std::uint32_t ib = cdisk[pb];
        sp_alpha[ns] = alpha;
        sp_beta[ns] = beta;
        sp_uax[ns] = aux;
        sp_uay[ns] = auy;
        sp_ubx[ns] = bux;
        sp_uby[ns] = buy;
        sp_ia[ns] = ia;
        sp_ib[ns] = ib;
        sp_pair[ns] = static_cast<std::uint32_t>(pr);
        g_ax[ns] = soa_cx[ia];
        g_ay[ns] = soa_cy[ia];
        g_ar[ns] = soa_r[ia];
        g_bx[ns] = soa_cx[ib];
        g_by[ns] = soa_cy[ib];
        g_br[ns] = soa_r[ib];
        ++ns;
        if (stats != nullptr) {
          ++stats->spans;
          ++stats->circle_intersections;
        }
      };

      for (;;) {
        double cand;
        double cand_ux;
        double cand_uy;
        if (qa < a1 && (qb >= b1 || cs[qa] <= cs[qb])) {
          cand = cs[qa];
          cand_ux = cux[qa];
          cand_uy = cuy[qa];
          ++qa;
        } else if (qb < b1) {
          cand = cs[qb];
          cand_ux = cux[qb];
          cand_uy = cuy[qb];
          ++qb;
        } else {
          break;
        }
        if (cand - last <= kAngleTol) continue;  // dedup (Step 1's unique)
        emit_span(last, last_ux, last_uy, cand, cand_ux, cand_uy);
        last = cand;
        last_ux = cand_ux;
        last_uy = cand_uy;
      }
      // Closing span up to 2*pi.  When the final kept break sits within
      // kAngleTol of 2*pi the closing sliver is skipped entirely: the
      // starts-only output extends the pair's last arc to 2*pi anyway.
      if (kTwoPi - last > kAngleTol) {
        emit_span(last, last_ux, last_uy, kTwoPi, 1.0, 0.0);
      }
    }

    // ---- Kernel 1: circle-circle intersections fused with the span
    // acceptance test, one task per span.  Padding lanes are coincident
    // unit circles (degenerate => acc 0), so their span fields — 0.0 from
    // the grow-only scratch — are never interpreted. ----
    const std::size_t spans_pad = geom::DiskSoA::padded(ns);
    for (std::size_t i = ns; i < spans_pad; ++i) {
      g_ax[i] = o.x;  // padding: coincident unit circles at o
      g_ay[i] = o.y;
      g_ar[i] = 1.0;
      g_bx[i] = o.x;
      g_by[i] = o.y;
      g_br[i] = 1.0;
    }
    kernels.circle_isect(spans_pad, g_ax, g_ay, g_ar, g_bx, g_by, g_br,
                         sp_uax, sp_uay, sp_ubx, sp_uby, sp_alpha, sp_beta,
                         o.x, o.y, ms.iv0x.data(), ms.iv0y.data(),
                         ms.iv1x.data(), ms.iv1y.data(), ms.iacc.data(),
                         ms.s_da.data(), ms.s_db.data(), ms.s_ss.data());
  }
  const std::size_t n_spans = ns;

  // ---- Pass B (scalar): compact the kernel-accepted cuts, in point
  // order, into the finalization batch (Merge Step 2's candidate filter).
  // Narrow spans (< 3.0 rad) and exact full-circle spans were decided
  // in-kernel; the rare in-between widths (bit 2) take one libm atan2
  // per candidate point here.  Spans that keep at least one cut get bit 3
  // ORed into their acceptance code so Passes C/D can tell cut spans
  // (sub-span evaluation batch) from cut-free ones (Kernel 1's
  // speculative whole-span evaluation). ----
  ensure_size(ms.cvx, geom::DiskSoA::padded(2 * n_spans));
  ensure_size(ms.cvy, geom::DiskSoA::padded(2 * n_spans));
  ensure_size(ms.cspan, 2 * n_spans);
  ensure_size(ms.cang, geom::DiskSoA::padded(2 * n_spans));
  ensure_size(ms.cux, geom::DiskSoA::padded(2 * n_spans));
  ensure_size(ms.cuy, geom::DiskSoA::padded(2 * n_spans));
  double* const cvx = ms.cvx.data();
  double* const cvy = ms.cvy.data();
  std::uint32_t* const cspan = ms.cspan.data();
  const double* const iv0x = ms.iv0x.data();
  const double* const iv0y = ms.iv0y.data();
  const double* const iv1x = ms.iv1x.data();
  const double* const iv1y = ms.iv1y.data();
  int* const iacc = ms.iacc.data();
  std::size_t n_cuts = 0;
  for (std::size_t s = 0; s < n_spans; ++s) {
    const int a = iacc[s];
    if ((a & 4) == 0) {
      // a in {0..3}: the kernel decided.  Unconditional stores with a
      // masked cursor advance keep this free of data-dependent branches
      // (rejected lanes write one-past-the-end garbage that the next
      // accepted lane overwrites; the buffers are sized 2 * n_spans).
      const std::size_t before = n_cuts;
      cvx[n_cuts] = iv0x[s];
      cvy[n_cuts] = iv0y[s];
      cspan[n_cuts] = static_cast<std::uint32_t>(s);
      n_cuts += static_cast<std::size_t>(a & 1);
      cvx[n_cuts] = iv1x[s];
      cvy[n_cuts] = iv1y[s];
      cspan[n_cuts] = static_cast<std::uint32_t>(s);
      n_cuts += static_cast<std::size_t>((a >> 1) & 1);
      iacc[s] = a | (static_cast<int>(n_cuts != before) << 3);
      continue;
    }
    // Deferred: mid-width span, (a & 3) candidate points.
    const double alpha = sp_alpha[s];
    const double beta = sp_beta[s];
    const int cnt = a & 3;
    bool kept = false;
    for (int k = 0; k < cnt; ++k) {
      const double vx = (k == 0) ? iv0x[s] : iv1x[s];
      const double vy = (k == 0) ? iv0y[s] : iv1y[s];
      const double vv = vx * vx + vy * vy;
      if (vv <= tol2) continue;  // intersection at the relay itself
      const double ang = geom::normalize_angle(std::atan2(vy, vx));
      if (ang > alpha + kAngleTol && ang < beta - kAngleTol) {
        cvx[n_cuts] = vx;
        cvy[n_cuts] = vy;
        cspan[n_cuts] = static_cast<std::uint32_t>(s);
        ++n_cuts;
        kept = true;
      }
    }
    if (kept) iacc[s] = a | 8;
  }
  // Zero-transition cuts (angle and unit precomputed) — only when some
  // live disk actually has them, i.e. the relay sits on its boundary.
  std::size_t n_zero_cuts = 0;
  if (zeros.any) {
    ensure_size(ms.zang, 4 * n_spans);
    ensure_size(ms.zux, 4 * n_spans);
    ensure_size(ms.zuy, 4 * n_spans);
    ensure_size(ms.zspan, 4 * n_spans);
    for (std::size_t s = 0; s < n_spans; ++s) {
      const double alpha = sp_alpha[s];
      const double beta = sp_beta[s];
      const std::uint32_t span_disks[2] = {sp_ia[s], sp_ib[s]};
      for (const std::uint32_t d : span_disks) {
        const std::size_t nz = zeros.count[d];
        for (std::size_t k = 0; k < nz; ++k) {
          const double z = (k == 0) ? zeros.ang0[d] : zeros.ang1[d];
          if (z > alpha + kAngleTol && z < beta - kAngleTol) {
            ms.zang[n_zero_cuts] = z;
            ms.zux[n_zero_cuts] = (k == 0) ? zeros.ux0[d] : zeros.ux1[d];
            ms.zuy[n_zero_cuts] = (k == 0) ? zeros.uy0[d] : zeros.uy1[d];
            ms.zspan[n_zero_cuts] = static_cast<std::uint32_t>(s);
            ++n_zero_cuts;
            iacc[s] |= 8;
          }
        }
      }
    }
  }

  // ---- Kernel 2: finalize accepted intersection cuts (angle + unit). ----
  const std::size_t cuts_pad = geom::DiskSoA::padded(n_cuts);
  for (std::size_t i = n_cuts; i < cuts_pad; ++i) {
    cvx[i] = 1.0;  // padding: the unit +x vector
    cvy[i] = 0.0;
  }
  kernels.cut_finalize(cuts_pad, cvx, cvy, ms.cang.data(), ms.cux.data(),
                       ms.cuy.data());

  // ---- Pass C (scalar): split each *cut* span at its cuts and gather one
  // winner evaluation per non-sliver sub-span (Merge Step 2, Cases 2-3).
  // Cut-free spans (Case 1, the common case) are skipped entirely — their
  // whole-span evaluation was already speculated by Kernel 1.  The ray
  // never needs trigonometry: the bisector u_lo + u_hi points at the
  // sub-span midpoint for widths < pi, and wider sub-spans (cut-free by
  // construction, so any interior ray sees the same winner) use the
  // perpendicular of the start unit. ----
  const std::size_t evals_cap =
      geom::DiskSoA::padded(n_spans + n_cuts + n_zero_cuts);
  for (auto* v : {&ms.e_sx, &ms.e_sy, &ms.e_lo, &ms.e_loux, &ms.e_louy,
                  &ms.e_da, &ms.e_db, &ms.e_ss, &ms.g_ax, &ms.g_ay, &ms.g_ar,
                  &ms.g_bx, &ms.g_by, &ms.g_br}) {
    ensure_size(*v, evals_cap);
  }
  ensure_size(ms.e_span, evals_cap);
  double* const e_sx = ms.e_sx.data();
  double* const e_sy = ms.e_sy.data();
  double* const e_lo = ms.e_lo.data();
  double* const e_loux = ms.e_loux.data();
  double* const e_louy = ms.e_louy.data();
  std::uint32_t* const e_span = ms.e_span.data();
  double* const g_ax = ms.g_ax.data();
  double* const g_ay = ms.g_ay.data();
  double* const g_ar = ms.g_ar.data();
  double* const g_bx = ms.g_bx.data();
  double* const g_by = ms.g_by.data();
  double* const g_br = ms.g_br.data();
  const double* const cang = ms.cang.data();
  const double* const cux2 = ms.cux.data();
  const double* const cuy2 = ms.cuy.data();
  std::size_t ne = 0;
  std::size_t ci = 0;
  std::size_t zi = 0;
  // Walk the two sorted cut lists directly — cost scales with the number
  // of cut spans, and no per-span skip branch is ever mispredicted.
  while (ci < n_cuts || zi < n_zero_cuts) {
    const std::uint32_t s =
        ci < n_cuts ? (zi < n_zero_cuts && ms.zspan[zi] < cspan[ci]
                           ? ms.zspan[zi]
                           : cspan[ci])
                    : ms.zspan[zi];
    const std::uint32_t ia = sp_ia[s];
    const std::uint32_t ib = sp_ib[s];
    double cut_ang[6];
    double cut_ux[6];
    double cut_uy[6];
    std::size_t nc = 0;
    for (; ci < n_cuts && cspan[ci] == s; ++ci) {
      cut_ang[nc] = cang[ci];
      cut_ux[nc] = cux2[ci];
      cut_uy[nc] = cuy2[ci];
      ++nc;
    }
    for (; zi < n_zero_cuts && ms.zspan[zi] == s; ++zi) {
      MLDCS_CHECK(nc < 6, "cut buffer overflow on span ["
                              << sp_alpha[s] << ", " << sp_beta[s]
                              << "] for live disks " << sp_ia[s] << "/"
                              << sp_ib[s]);
      cut_ang[nc] = ms.zang[zi];
      cut_ux[nc] = ms.zux[zi];
      cut_uy[nc] = ms.zuy[zi];
      ++nc;
    }
    // Tiny stable insertion sort (<= 6 cuts; see resolve_span).
    for (std::size_t a = 1; a < nc; ++a) {
      const double va = cut_ang[a];
      const double vx = cut_ux[a];
      const double vy = cut_uy[a];
      std::size_t b = a;
      while (b > 0 && cut_ang[b - 1] > va) {
        cut_ang[b] = cut_ang[b - 1];
        cut_ux[b] = cut_ux[b - 1];
        cut_uy[b] = cut_uy[b - 1];
        --b;
      }
      cut_ang[b] = va;
      cut_ux[b] = vx;
      cut_uy[b] = vy;
    }
    double lo = sp_alpha[s];
    double loux = sp_uax[s];
    double louy = sp_uay[s];
    for (std::size_t k = 0; k <= nc; ++k) {
      const double hi = (k == nc) ? sp_beta[s] : cut_ang[k];
      const double hux = (k == nc) ? sp_ubx[s] : cut_ux[k];
      const double huy = (k == nc) ? sp_uby[s] : cut_uy[k];
      if (hi - lo > kAngleTol) {
        if (hi - lo < 3.0) {
          e_sx[ne] = loux + hux;  // midpoint bisector (width < pi)
          e_sy[ne] = louy + huy;
        } else {
          e_sx[ne] = -louy;  // interior perpendicular ray (see fast path)
          e_sy[ne] = loux;
        }
        e_lo[ne] = lo;
        e_loux[ne] = loux;
        e_louy[ne] = louy;
        e_span[ne] = static_cast<std::uint32_t>(s);
        g_ax[ne] = soa_cx[ia];
        g_ay[ne] = soa_cy[ia];
        g_ar[ne] = soa_r[ia];
        g_bx[ne] = soa_cx[ib];
        g_by[ne] = soa_cy[ib];
        g_br[ne] = soa_r[ib];
        ++ne;
      }
      lo = hi;
      loux = hux;
      louy = huy;
    }
  }

  // ---- Kernel 3: paired radial distances along every bisector. ----
  const std::size_t n_evals = ne;
  const std::size_t evals_pad = geom::DiskSoA::padded(n_evals);
  for (std::size_t i = n_evals; i < evals_pad; ++i) {
    e_sx[i] = 1.0;  // padding: the unit +x vector against dummy circles
    e_sy[i] = 0.0;
    g_ax[i] = o.x;
    g_ay[i] = o.y;
    g_ar[i] = 1.0;
    g_bx[i] = o.x;
    g_by[i] = o.y;
    g_br[i] = 1.0;
  }
  kernels.rho_pairs(evals_pad, e_sx, e_sy, g_ax, g_ay, g_ar, g_bx, g_by,
                    g_br, o.x, o.y, ms.e_da.data(), ms.e_db.data(),
                    ms.e_ss.data());

  // ---- Pass D (scalar): pick each evaluated (sub-)span's winner with
  // the library tie-break (outer_disk_at, scaled by |s| so no
  // normalization is needed) and emit starts, coalescing same-disk
  // neighbors (Step 3).  Cut-free spans consume Kernel 1's speculative
  // whole-span evaluation — pure stream reads, no gather; cut spans
  // consume their sub-span group from Kernel 3.  `next` is written
  // through cursors into arrays sized at the combined upper bound, then
  // shrunk to the emitted arc count. ----
  const std::size_t arcs_cap = n_spans + n_evals;
  next.start.resize(arcs_cap);
  next.ux.resize(arcs_cap);
  next.uy.resize(arcs_cap);
  next.disk.resize(arcs_cap);
  next.bounds.resize(n_pairs + 1);
  double* const nx_start = next.start.data();
  double* const nx_ux = next.ux.data();
  double* const nx_uy = next.uy.data();
  std::uint32_t* const nx_disk = next.disk.data();
  std::uint32_t* const nx_bounds = next.bounds.data();
  nx_bounds[0] = 0;
  const double* const e_da = ms.e_da.data();
  const double* const e_db = ms.e_db.data();
  const double* const e_ss = ms.e_ss.data();
  const double* const s_da = ms.s_da.data();
  const double* const s_db = ms.s_db.data();
  const double* const s_ss = ms.s_ss.data();
  constexpr std::uint32_t kNoDisk = 0xffffffffu;
  // da - db > kTol * |s| <=> rho_a - rho_b > kTol at the ray angle;
  // radial tie: larger disk radius first, then smaller id.
  const auto pick_winner = [soa_r, tol2](double da, double db, double ss2,
                                         std::uint32_t ia,
                                         std::uint32_t ib) noexcept {
    const double diff = da - db;
    if (diff * diff > tol2 * ss2) return diff > 0.0 ? ia : ib;
    if (soa_r[ia] > soa_r[ib] + geom::kTol) return ia;
    if (soa_r[ib] > soa_r[ia] + geom::kTol) return ib;
    return ia < ib ? ia : ib;
  };
  std::size_t na = 0;
  std::size_t open_pair = 0;
  std::uint32_t last_disk = kNoDisk;
  std::size_t t = 0;  // Kernel-3 evaluation cursor
  for (std::size_t s = 0; s < n_spans; ++s) {
    const std::uint32_t pr = sp_pair[s];
    while (open_pair < pr) {
      nx_bounds[++open_pair] = static_cast<std::uint32_t>(na);
      last_disk = kNoDisk;
    }
    const std::uint32_t ia = sp_ia[s];
    const std::uint32_t ib = sp_ib[s];
    if ((iacc[s] & 8) == 0) {
      // Cut-free span (Case 1): one whole-span winner, speculated by
      // Kernel 1.  Pass A guarantees the span is not a sliver.
      const std::uint32_t win = pick_winner(s_da[s], s_db[s], s_ss[s], ia, ib);
      if (stats != nullptr) ++stats->arcs_emitted;
      if (win != last_disk) {
        nx_start[na] = sp_alpha[s];
        nx_ux[na] = sp_uax[s];
        nx_uy[na] = sp_uay[s];
        nx_disk[na] = win;
        ++na;
        last_disk = win;
      }
      continue;
    }
    for (; t < n_evals && e_span[t] == static_cast<std::uint32_t>(s); ++t) {
      const std::uint32_t win = pick_winner(e_da[t], e_db[t], e_ss[t], ia, ib);
      if (stats != nullptr) ++stats->arcs_emitted;
      if (win != last_disk) {
        nx_start[na] = e_lo[t];
        nx_ux[na] = e_loux[t];
        nx_uy[na] = e_louy[t];
        nx_disk[na] = win;
        ++na;
        last_disk = win;
      }
    }
  }
  while (open_pair < n_pairs) {
    nx_bounds[++open_pair] = static_cast<std::uint32_t>(na);
  }
  next.start.resize(na);
  next.ux.resize(na);
  next.uy.resize(na);
  next.disk.resize(na);
}

}  // namespace detail

}  // namespace mldcs::core
