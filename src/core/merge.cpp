#include "core/merge.hpp"

#include "core/skyline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
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

namespace {

using geom::DiskSoA;
static_assert(DiskSoA::kLaneBlock % geom::simd::kBatchPad == 0,
              "padded task batches must be whole kernel batches");

/// Cuts a level of `level_arcs` arcs can produce: two circle crossings per
/// refined span, plus its `zero_cuts` zero-transition cuts.  Spans number
/// at most the level's arcs: a pair of skylines of a and b arcs refines
/// into at most a + b - 1 spans.
constexpr std::size_t cut_bound(std::size_t level_arcs,
                                std::size_t zero_cuts) noexcept {
  return 2 * level_arcs + zero_cuts;
}

using Reals = double* MergeLevelScratch::*;
using Ids = std::uint32_t* MergeLevelScratch::*;
using M = MergeLevelScratch;
/// The scratch arrays by length: one per span, one per cut, one per
/// evaluation (the gathered disks serve the spans' batch too), one per
/// zero-transition cut.
constexpr Reals kSpanReals[] = {&M::sp_alpha, &M::sp_beta, &M::sp_uax,
                                &M::sp_uay,   &M::sp_ubx,  &M::sp_uby,
                                &M::iv0x,     &M::iv0y,    &M::iv1x,
                                &M::iv1y,     &M::s_da,    &M::s_db,
                                &M::s_ss};
constexpr Reals kCutReals[] = {&M::cvx, &M::cvy, &M::cang, &M::cux, &M::cuy};
constexpr Reals kEvalReals[] = {&M::g_ax,  &M::g_ay,   &M::g_ar,   &M::g_bx,
                                &M::g_by,  &M::g_br,   &M::e_sx,   &M::e_sy,
                                &M::e_lo,  &M::e_loux, &M::e_louy, &M::e_da,
                                &M::e_db,  &M::e_ss};
constexpr Reals kZeroReals[] = {&M::zang, &M::zux, &M::zuy};
constexpr Ids kSpanIds[] = {&M::sp_ia, &M::sp_ib, &M::pair_end,
                            &M::cut_span};
constexpr Ids kSpanEndIds[] = {&M::cut_first, &M::eval_end};

/// Array lengths for a level of `level_arcs` arcs (kernel batches padded).
struct ScratchShape {
  std::size_t spans, cuts, evals, zcuts;

  ScratchShape(std::size_t level_arcs, std::size_t zero_cuts)
      : spans(DiskSoA::padded(level_arcs)),
        cuts(DiskSoA::padded(cut_bound(level_arcs, zero_cuts))),
        // A cut span with c cuts has at most c + 1 sub-spans.
        evals(DiskSoA::padded(level_arcs +
                              cut_bound(level_arcs, zero_cuts))),
        zcuts(zero_cuts) {}

  [[nodiscard]] std::size_t reals() const noexcept {
    return std::size(kSpanReals) * spans + std::size(kCutReals) * cuts +
           std::size(kEvalReals) * evals + std::size(kZeroReals) * zcuts;
  }
  [[nodiscard]] std::size_t ids() const noexcept {
    return std::size(kSpanIds) * spans + std::size(kSpanEndIds) * (spans + 1) +
           zcuts;
  }
};

}  // namespace

void LevelSoA::fit(std::size_t n_arcs, std::size_t n_skylines) {
  // The readable slot: Pass A loads the head of an exhausted arc list
  // before discarding it, which at the level's end is one past its arcs.
  const std::size_t slots = n_arcs + 1;
  if (reals_.size() < 3 * slots) reals_.resize(3 * slots);
  if (ids_.size() < slots + n_skylines + 1) {
    ids_.resize(slots + n_skylines + 1);
  }
  start = reals_.data();
  ux = start + slots;
  uy = ux + slots;
  disk = ids_.data();
  bounds = disk + slots;
}

MLDCS_ALLOC_OK void LevelSoA::reserve(std::size_t n_arcs,
                                      std::size_t n_skylines) {
  reals_.reserve(3 * (n_arcs + 1));
  ids_.reserve(n_arcs + 1 + n_skylines + 1);
}

void ZeroCutTable::fit(std::size_t n) {
  if (count.size() >= n) return;
  count.resize(n);
  for (auto* v : {&ang0, &ang1, &ux0, &uy0, &ux1, &uy1}) v->resize(n);
}

MLDCS_ALLOC_OK void ZeroCutTable::reserve(std::size_t n_disks) {
  count.reserve(n_disks);
  for (auto* v : {&ang0, &ang1, &ux0, &uy0, &ux1, &uy1}) v->reserve(n_disks);
}

void MergeLevelScratch::fit(std::size_t level_arcs, std::size_t zero_cuts) {
  const ScratchShape shape(level_arcs, zero_cuts);
  if (reals_.size() < shape.reals()) reals_.resize(shape.reals());
  if (ids_.size() < shape.ids()) ids_.resize(shape.ids());
  if (codes_.size() < shape.spans) codes_.resize(shape.spans);
  double* r = reals_.data();
  const auto carve = [](auto*& cursor, std::size_t n) {
    auto* const p = cursor;
    cursor += n;
    return p;
  };
  for (const Reals a : kSpanReals) this->*a = carve(r, shape.spans);
  for (const Reals a : kCutReals) this->*a = carve(r, shape.cuts);
  for (const Reals a : kEvalReals) this->*a = carve(r, shape.evals);
  for (const Reals a : kZeroReals) this->*a = carve(r, shape.zcuts);
  std::uint32_t* q = ids_.data();
  for (const Ids a : kSpanIds) this->*a = carve(q, shape.spans);
  for (const Ids a : kSpanEndIds) this->*a = carve(q, shape.spans + 1);
  zslot = carve(q, shape.zcuts);
  iacc = codes_.data();
}

MLDCS_ALLOC_OK void MergeLevelScratch::reserve(std::size_t n_disks) {
  // Lemma 8: a level's partial skylines hold at most 2n arcs in total.
  const ScratchShape shape(2 * n_disks, zero_cut_bound(n_disks));
  reals_.reserve(shape.reals());
  ids_.reserve(shape.ids());
  codes_.reserve(shape.spans);
}

MLDCS_HOT_PATH MLDCS_NO_LOCK void merge_level_batched(
    const LevelSoA* cur, LevelSoA& next, const geom::DiskSoA& soa,
    geom::Vec2 o, const ZeroCutTable& zeros,
    const geom::simd::SkylineKernels& kernels, MergeLevelScratch& ms,
    MergeStats* stats) {
  const std::size_t level_arcs = cur != nullptr ? cur->arcs : soa.count;
  const std::size_t n_skylines = cur != nullptr ? cur->skylines : soa.count;
  const std::size_t n_pairs = n_skylines / 2;
  const std::size_t zero_cuts = zeros.any ? zero_cut_bound(soa.count) : 0;
  // The level's one size check: every array below is written through a
  // raw cursor within these bounds.
  ms.fit(level_arcs, zero_cuts);
  next.fit(merge_output_bound(level_arcs, zero_cuts),
           n_pairs + n_skylines % 2);
  const double tol2 = geom::kTol * geom::kTol;
  const double* const soa_cx = soa.cx.data();
  const double* const soa_cy = soa.cy.data();
  const double* const soa_r = soa.r.data();
  double* const sp_alpha = ms.sp_alpha;
  double* const sp_beta = ms.sp_beta;
  double* const sp_uax = ms.sp_uax;
  double* const sp_uay = ms.sp_uay;
  double* const sp_ubx = ms.sp_ubx;
  double* const sp_uby = ms.sp_uby;
  std::uint32_t* const sp_ia = ms.sp_ia;
  std::uint32_t* const sp_ib = ms.sp_ib;
  std::uint32_t* const pair_end = ms.pair_end;
  double* const g_ax = ms.g_ax;
  double* const g_ay = ms.g_ay;
  double* const g_ar = ms.g_ar;
  double* const g_bx = ms.g_bx;
  double* const g_by = ms.g_by;
  double* const g_br = ms.g_br;

  // ---- Pass A (scalar): refine each pair's breakpoints into aligned
  // spans (Merge Step 1) and gather the circle-intersection batch. ----
  std::size_t ns = 0;
  const auto gather = [&](std::size_t i, std::uint32_t ia, std::uint32_t ib) {
    sp_ia[i] = ia;
    sp_ib[i] = ib;
    g_ax[i] = soa_cx[ia];
    g_ay[i] = soa_cy[ia];
    g_ar[i] = soa_r[ia];
    g_bx[i] = soa_cx[ib];
    g_by[i] = soa_cy[ib];
    g_br[i] = soa_r[ib];
  };
  if (cur == nullptr) {
    // Level 0: pair p merges the full circles of live disks 2p and 2p + 1,
    // one span [0, 2*pi] with the +x unit at both ends, so there is no
    // breakpoint to walk.
    for (std::size_t pr = 0; pr < n_pairs; ++pr) {
      sp_alpha[pr] = 0.0;
      sp_beta[pr] = kTwoPi;
      sp_uax[pr] = 1.0;
      sp_uay[pr] = 0.0;
      sp_ubx[pr] = 1.0;
      sp_uby[pr] = 0.0;
      gather(pr, static_cast<std::uint32_t>(2 * pr),
             static_cast<std::uint32_t>(2 * pr + 1));
      pair_end[pr] = static_cast<std::uint32_t>(pr + 1);
    }
    ns = n_pairs;
  } else {
    const double* const cs = cur->start;
    const double* const cux = cur->ux;
    const double* const cuy = cur->uy;
    const std::uint32_t* const cdisk = cur->disk;
    const std::uint32_t* const cbounds = cur->bounds;
    for (std::size_t pr = 0; pr < n_pairs; ++pr) {
      const std::size_t a1 = cbounds[2 * pr + 1];
      const std::size_t b1 = cbounds[2 * pr + 2];
      // Breakpoint cursors.  Both skylines start at exactly 0.0; that
      // shared break seeds the walk.
      std::size_t qa = cbounds[2 * pr] + 1;
      std::size_t qb = a1 + 1;
      double last = 0.0;
      double last_ux = 1.0;
      double last_uy = 0.0;

      // Emit span [last, beta].  Each skyline shows the arc that holds
      // the span's midpoint: the arc of its last consumed break other
      // than beta (pa, pb), or an earlier one when breaks that Step 1
      // merged into `last` lie past the midpoint, which only a span
      // under 2 * kAngleTol wide can see.  Every skyline's first start
      // is 0.0, below any midpoint, so the step back stops there.
      const auto emit_span = [&](double beta, double bux, double buy,
                                 std::size_t pa, std::size_t pb) {
        const double mid = 0.5 * (last + beta);
        while (cs[pa] > mid) --pa;
        while (cs[pb] > mid) --pb;
        sp_alpha[ns] = last;
        sp_beta[ns] = beta;
        sp_uax[ns] = last_ux;
        sp_uay[ns] = last_uy;
        sp_ubx[ns] = bux;
        sp_uby[ns] = buy;
        gather(ns, cdisk[pa], cdisk[pb]);
        ++ns;
      };

      while (qa < a1 || qb < b1) {
        // Next break of the merged sequence, ties to skyline A, chosen
        // without a data-dependent branch: an exhausted list's head (the
        // next skyline's first start, or the level's readable slot) is
        // loaded and never taken.
        const std::size_t from_a = static_cast<std::size_t>(
            (qa < a1) & ((qb >= b1) | (cs[qa] <= cs[qb])));
        const std::size_t q = from_a != 0 ? qa : qb;
        qa += from_a;
        qb += 1 - from_a;
        const double cand = cs[q];
        const double cand_ux = cux[q];
        const double cand_uy = cuy[q];
        if (cand - last <= kAngleTol) continue;  // dedup (Step 1's unique)
        emit_span(cand, cand_ux, cand_uy, qa - 1 - from_a, qb - 2 + from_a);
        last = cand;
        last_ux = cand_ux;
        last_uy = cand_uy;
      }
      // Closing span up to 2*pi.  When the final kept break sits within
      // kAngleTol of 2*pi the closing sliver is skipped entirely: the
      // starts-only output extends the pair's last arc to 2*pi anyway.
      if (kTwoPi - last > kAngleTol) {
        emit_span(kTwoPi, 1.0, 0.0, a1 - 1, b1 - 1);
      }
      pair_end[pr] = static_cast<std::uint32_t>(ns);
    }
  }
  const std::size_t n_spans = ns;

  // ---- Kernel 1: circle-circle intersections fused with the span
  // acceptance test, one task per span.  Padding lanes are coincident
  // unit circles (degenerate => acc 0), so their span fields — stale
  // values of the grow-only scratch — are never interpreted. ----
  for (std::size_t i = n_spans; i < DiskSoA::padded(n_spans); ++i) {
    g_ax[i] = o.x;  // padding: coincident unit circles at o
    g_ay[i] = o.y;
    g_ar[i] = 1.0;
    g_bx[i] = o.x;
    g_by[i] = o.y;
    g_br[i] = 1.0;
  }
  kernels.circle_isect(DiskSoA::padded(n_spans), g_ax, g_ay, g_ar, g_bx,
                       g_by, g_br, sp_uax, sp_uay, sp_ubx, sp_uby, sp_alpha,
                       sp_beta, o.x, o.y, ms.iv0x, ms.iv0y,
                       ms.iv1x, ms.iv1y, ms.iacc,
                       ms.s_da, ms.s_db, ms.s_ss);

  // ---- Pass B (scalar): list each span's cuts, in span order, as the
  // finalization batch (Merge Step 2's candidate filter).  Narrow spans
  // (< 3.0 rad) and exact full-circle spans were decided in-kernel; the
  // rare in-between widths (bit 2) take one libm atan2 per candidate
  // point here.  When the relay sits on some disk's boundary, the span's
  // zero-transition cuts follow its crossings.  Spans that keep at least
  // one cut get bit 3 ORed into their acceptance code so Pass D can tell
  // cut spans (sub-span evaluation batch) from cut-free ones (Kernel 1's
  // speculative whole-span evaluation). ----
  double* const cvx = ms.cvx;
  double* const cvy = ms.cvy;
  std::uint32_t* const cut_span = ms.cut_span;
  std::uint32_t* const cut_first = ms.cut_first;
  const double* const iv0x = ms.iv0x;
  const double* const iv0y = ms.iv0y;
  const double* const iv1x = ms.iv1x;
  const double* const iv1y = ms.iv1y;
  int* const iacc = ms.iacc;
  std::size_t n_cuts = 0;
  std::size_t n_cut_spans = 0;
  std::size_t n_zero_cuts = 0;
  for (std::size_t s = 0; s < n_spans; ++s) {
    const int a = iacc[s];
    const std::size_t first = n_cuts;
    if ((a & 4) == 0) {
      // a in {0..3}: the kernel decided.  Unconditional stores with a
      // masked cursor advance keep this free of data-dependent branches
      // (a rejected point is overwritten by the next accepted one).
      cvx[n_cuts] = iv0x[s];
      cvy[n_cuts] = iv0y[s];
      n_cuts += static_cast<std::size_t>(a & 1);
      cvx[n_cuts] = iv1x[s];
      cvy[n_cuts] = iv1y[s];
      n_cuts += static_cast<std::size_t>((a >> 1) & 1);
    } else {
      // Deferred: mid-width span, (a & 3) candidate points.
      for (int k = 0; k < (a & 3); ++k) {
        const double vx = (k == 0) ? iv0x[s] : iv1x[s];
        const double vy = (k == 0) ? iv0y[s] : iv1y[s];
        if (vx * vx + vy * vy <= tol2) continue;  // crossing at the relay
        const double ang = geom::normalize_angle(std::atan2(vy, vx));
        if (ang > sp_alpha[s] + kAngleTol && ang < sp_beta[s] - kAngleTol) {
          cvx[n_cuts] = vx;
          cvy[n_cuts] = vy;
          ++n_cuts;
        }
      }
    }
    if (zeros.any) {
      // Zero-transition cuts: angle and unit known since precompute.  The
      // unit goes through Kernel 2 like any cut vector; the exact values
      // are written over its output below.
      for (const std::uint32_t d : {sp_ia[s], sp_ib[s]}) {
        for (std::size_t k = 0; k < zeros.count[d]; ++k) {
          const double z = (k == 0) ? zeros.ang0[d] : zeros.ang1[d];
          if (z > sp_alpha[s] + kAngleTol && z < sp_beta[s] - kAngleTol) {
            ms.zslot[n_zero_cuts] = static_cast<std::uint32_t>(n_cuts);
            ms.zang[n_zero_cuts] = z;
            ms.zux[n_zero_cuts] = (k == 0) ? zeros.ux0[d] : zeros.ux1[d];
            ms.zuy[n_zero_cuts] = (k == 0) ? zeros.uy0[d] : zeros.uy1[d];
            cvx[n_cuts] = ms.zux[n_zero_cuts];
            cvy[n_cuts] = ms.zuy[n_zero_cuts];
            ++n_zero_cuts;
            ++n_cuts;
          }
        }
      }
    }
    const bool cut = n_cuts != first;
    cut_span[n_cut_spans] = static_cast<std::uint32_t>(s);
    cut_first[n_cut_spans] = static_cast<std::uint32_t>(first);
    n_cut_spans += static_cast<std::size_t>(cut);
    iacc[s] = a | (static_cast<int>(cut) << 3);
  }
  cut_first[n_cut_spans] = static_cast<std::uint32_t>(n_cuts);

  // ---- Kernel 2: finalize the cuts (angle + unit). ----
  for (std::size_t i = n_cuts; i < DiskSoA::padded(n_cuts); ++i) {
    cvx[i] = 1.0;  // padding: the unit +x vector
    cvy[i] = 0.0;
  }
  double* const cang = ms.cang;
  double* const cux = ms.cux;
  double* const cuy = ms.cuy;
  kernels.cut_finalize(DiskSoA::padded(n_cuts), cvx, cvy, cang, cux, cuy);
  for (std::size_t k = 0; k < n_zero_cuts; ++k) {
    const std::uint32_t c = ms.zslot[k];
    cang[c] = ms.zang[k];
    cux[c] = ms.zux[k];
    cuy[c] = ms.zuy[k];
  }

  // ---- Pass C (scalar): split each *cut* span at its cuts and gather one
  // winner evaluation per non-sliver sub-span (Merge Step 2, Cases 2-3).
  // Cut-free spans (Case 1, the common case) are skipped entirely — their
  // whole-span evaluation was already speculated by Kernel 1.  The ray
  // never needs trigonometry: the bisector u_lo + u_hi points at the
  // sub-span midpoint for widths < pi, and wider sub-spans (cut-free by
  // construction, so any interior ray sees the same winner) use the
  // perpendicular of the start unit. ----
  double* const e_sx = ms.e_sx;
  double* const e_sy = ms.e_sy;
  double* const e_lo = ms.e_lo;
  double* const e_loux = ms.e_loux;
  double* const e_louy = ms.e_louy;
  std::uint32_t* const eval_end = ms.eval_end;
  std::size_t ne = 0;
  for (std::size_t m = 0; m < n_cut_spans; ++m) {
    const std::uint32_t s = cut_span[m];
    const std::size_t c0 = cut_first[m];
    const std::size_t c1 = cut_first[m + 1];
    // Stable insertion sort of the span's cuts by angle, in place: one or
    // two crossings, up to six with zero transitions.
    for (std::size_t c = c0 + 1; c < c1; ++c) {
      const double va = cang[c];
      const double vx = cux[c];
      const double vy = cuy[c];
      std::size_t b = c;
      while (b > c0 && cang[b - 1] > va) {
        cang[b] = cang[b - 1];
        cux[b] = cux[b - 1];
        cuy[b] = cuy[b - 1];
        --b;
      }
      cang[b] = va;
      cux[b] = vx;
      cuy[b] = vy;
    }
    const double ax = soa_cx[sp_ia[s]];
    const double ay = soa_cy[sp_ia[s]];
    const double ar = soa_r[sp_ia[s]];
    const double bx = soa_cx[sp_ib[s]];
    const double by = soa_cy[sp_ib[s]];
    const double br = soa_r[sp_ib[s]];
    double lo = sp_alpha[s];
    double loux = sp_uax[s];
    double louy = sp_uay[s];
    const auto sub_span = [&](double hi, double hux, double huy) {
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
        g_ax[ne] = ax;
        g_ay[ne] = ay;
        g_ar[ne] = ar;
        g_bx[ne] = bx;
        g_by[ne] = by;
        g_br[ne] = br;
        ++ne;
      }
      lo = hi;
      loux = hux;
      louy = huy;
    };
    for (std::size_t c = c0; c < c1; ++c) sub_span(cang[c], cux[c], cuy[c]);
    sub_span(sp_beta[s], sp_ubx[s], sp_uby[s]);
    eval_end[m] = static_cast<std::uint32_t>(ne);
  }

  // ---- Kernel 3: paired radial distances along every bisector. ----
  const std::size_t n_evals = ne;
  for (std::size_t i = n_evals; i < DiskSoA::padded(n_evals); ++i) {
    e_sx[i] = 1.0;  // padding: the unit +x vector against dummy circles
    e_sy[i] = 0.0;
    g_ax[i] = o.x;
    g_ay[i] = o.y;
    g_ar[i] = 1.0;
    g_bx[i] = o.x;
    g_by[i] = o.y;
    g_br[i] = 1.0;
  }
  kernels.rho_pairs(DiskSoA::padded(n_evals), e_sx, e_sy, g_ax, g_ay, g_ar,
                    g_bx, g_by, g_br, o.x, o.y, ms.e_da,
                    ms.e_db, ms.e_ss);

  // ---- Pass D (scalar): pick each evaluated (sub-)span's winner with
  // the library tie-break (outer_disk_at, scaled by |s| so no
  // normalization is needed) and emit starts, coalescing same-disk
  // neighbors (Step 3).  Cut-free spans consume Kernel 1's speculative
  // whole-span evaluation — pure stream reads, no gather; cut spans
  // consume their sub-span group from Kernel 3.  Every arc is stored at
  // the cursor, which advances only past a change of disk, so the
  // coalescing takes no branch. ----
  double* const nx_start = next.start;
  double* const nx_ux = next.ux;
  double* const nx_uy = next.uy;
  std::uint32_t* const nx_disk = next.disk;
  std::uint32_t* const nx_bounds = next.bounds;
  const double* const e_da = ms.e_da;
  const double* const e_db = ms.e_db;
  const double* const e_ss = ms.e_ss;
  const double* const s_da = ms.s_da;
  const double* const s_db = ms.s_db;
  const double* const s_ss = ms.s_ss;
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
  std::size_t s = 0;
  std::size_t m = 0;  // cut span ordinal
  std::size_t t = 0;  // Kernel-3 evaluation cursor
  for (std::size_t pr = 0; pr < n_pairs; ++pr) {
    nx_bounds[pr] = static_cast<std::uint32_t>(na);
    std::uint32_t last_disk = kNoDisk;
    const auto emit_arc = [&](double start, double ux, double uy,
                              std::uint32_t win) {
      nx_start[na] = start;
      nx_ux[na] = ux;
      nx_uy[na] = uy;
      nx_disk[na] = win;
      na += static_cast<std::size_t>(win != last_disk);
      last_disk = win;
    };
    for (const std::size_t s_end = pair_end[pr]; s < s_end; ++s) {
      const std::uint32_t ia = sp_ia[s];
      const std::uint32_t ib = sp_ib[s];
      if ((iacc[s] & 8) == 0) {
        // Cut-free span (Case 1): one whole-span winner, speculated by
        // Kernel 1.  Pass A guarantees the span is not a sliver.
        emit_arc(sp_alpha[s], sp_uax[s], sp_uay[s],
                 pick_winner(s_da[s], s_db[s], s_ss[s], ia, ib));
        continue;
      }
      for (const std::size_t t_end = eval_end[m++]; t < t_end; ++t) {
        emit_arc(e_lo[t], e_loux[t], e_louy[t],
                 pick_winner(e_da[t], e_db[t], e_ss[t], ia, ib));
      }
    }
  }
  nx_bounds[n_pairs] = static_cast<std::uint32_t>(na);
  next.skylines = n_pairs;
  if (n_skylines % 2 == 1) {
    // The odd tail skyline, carried verbatim: at level 0 the last live
    // disk's full circle.
    if (cur == nullptr) {
      nx_start[na] = 0.0;
      nx_ux[na] = 1.0;
      nx_uy[na] = 0.0;
      nx_disk[na] = static_cast<std::uint32_t>(n_skylines - 1);
      ++na;
    } else {
      for (std::size_t k = cur->bounds[n_skylines - 1];
           k < cur->bounds[n_skylines]; ++k) {
        nx_start[na] = cur->start[k];
        nx_ux[na] = cur->ux[k];
        nx_uy[na] = cur->uy[k];
        nx_disk[na] = cur->disk[k];
        ++na;
      }
    }
    nx_bounds[++next.skylines] = static_cast<std::uint32_t>(na);
  }
  next.arcs = na;
  if (stats != nullptr) {
    stats->spans += n_spans;
    stats->circle_intersections += n_spans;
    stats->arcs_emitted += n_spans - n_cut_spans + n_evals;
  }
}

}  // namespace detail

}  // namespace mldcs::core
