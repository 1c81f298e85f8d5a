#pragma once

/// \file simd_kernels_impl.hpp
/// Policy-templated bodies of the skyline batch kernels (simd.hpp).
///
/// Included only by the per-ISA translation units (simd_scalar.cpp,
/// simd_avx2.cpp, simd_neon.cpp), each of which supplies a lane policy:
///
///   struct Policy {
///     static constexpr std::size_t kWidth;   // 1, 2, or 4 (divides kBatchPad)
///     using V;                               // kWidth doubles
///     using M;                               // per-lane boolean mask
///     load/store/broadcast, add/sub/mul/div/sqrt/abs/neg,
///     le/lt -> M, m_and/m_or/m_andnot, select(M, a, b) = m ? a : b,
///     to_bits(M) -> unsigned (bit k = lane k)
///   };
///
/// Every operation used here is an elementwise correctly-rounded IEEE-754
/// double op, applied in the same order by every policy; the one cross-lane
/// step, sector_bound's maximum over disks, is exact in any grouping — so
/// two policies produce byte-identical outputs lane for lane.  The TUs are
/// compiled with -ffp-contract=off, which keeps the compiler from fusing
/// mul+add chains into FMAs on one policy but not another (GCC contracts
/// by default); see docs/PERFORMANCE.md.

#include <cstddef>
#include <cstdint>
#include <limits>

#include "geometry/angle.hpp"
#include "geometry/simd.hpp"
#include "geometry/tolerance.hpp"

namespace mldcs::geom::simd::detail {

/// atan(u) = u + u*(z*P(z)) with z = u^2, valid on |u| <= tan(pi/8).
/// Degree-8 Chebyshev least-squares fit of (atan(u)/u - 1)/z; max error of
/// the assembled atan over the domain is 1.5e-14 rad against libm
/// (measured on a 700k-point sweep), five orders inside kAngleTol.  The
/// odd symmetry makes the same coefficients exact for negative u after the
/// second octant reduction.
inline constexpr double kAtanPoly[9] = {
    -3.33333333329442039e-01, 1.99999998895778408e-01,
    -1.42857051087723369e-01, 1.11107665476095921e-01,
    -9.08398003178051971e-02, 7.61189004812931197e-02,
    -6.11689860741807603e-02, 3.72353025050359970e-02,
    -7.41409091522919183e-03,
};

inline constexpr double kTanPi8 = 4.14213562373095034e-01;  // tan(pi/8)
inline constexpr double kHalfPi = geom::kPi / 2.0;
inline constexpr double kQuarterPi = geom::kPi / 4.0;

/// Unit vectors of the sector boundaries 2*pi*k/16, built from the
/// correctly rounded cos(pi/8), sin(pi/8) and sqrt(1/2) so the table is
/// exactly symmetric and the axis boundaries are exact.
inline constexpr double kCosPi8 = 0.9238795325112867;
inline constexpr double kSinPi8 = 0.3826834323650898;
inline constexpr double kSqrtHalf = 0.7071067811865476;
static_assert(kSectors == 16, "the boundary table is written for 16 sectors");
inline constexpr double kSectorUx[kSectors] = {
    1.0,  kCosPi8,  kSqrtHalf,  kSinPi8,  0.0, -kSinPi8, -kSqrtHalf, -kCosPi8,
    -1.0, -kCosPi8, -kSqrtHalf, -kSinPi8, 0.0, kSinPi8,  kSqrtHalf,  kCosPi8};
inline constexpr double kSectorUy[kSectors] = {
    0.0,  kSinPi8,  kSqrtHalf,  kCosPi8,  1.0,  kCosPi8,  kSqrtHalf,  kSinPi8,
    0.0, -kSinPi8, -kSqrtHalf, -kCosPi8, -1.0, -kCosPi8, -kSqrtHalf, -kSinPi8};

template <class P>
struct BatchKernels {
  using V = typename P::V;
  using M = typename P::M;
  static constexpr std::size_t W = P::kWidth;
  static_assert(kBatchPad % W == 0,
                "lane width must divide the batch padding");

  // -- circle_isect -------------------------------------------------------
  // Replicates geom::intersect_circles (circle_intersect.cpp) with
  // tol = kTol, emitting points relative to the origin o.  Lanes whose
  // relation is coincident/disjoint/contained get acc 0 and a divisor of
  // 1.0 blended in so no lane ever divides by zero (d == 0 implies one of
  // those relations, as in the scalar early returns).  The fused span
  // acceptance mirrors Merge Pass B: a point v is inside (alpha + tol,
  // beta - tol) iff both endpoint cross products clear the tolerance sine
  // (narrow spans), or iff it avoids the +x axis (exact full-circle
  // spans); other widths defer to the caller via bit 2.
  static void circle_isect(std::size_t n, const double* ax, const double* ay,
                           const double* ar, const double* bx,
                           const double* by, const double* br,
                           const double* uax, const double* uay,
                           const double* ubx, const double* uby,
                           const double* alpha, const double* beta, double ox,
                           double oy, double* v0x, double* v0y, double* v1x,
                           double* v1y, int* acc, double* sda, double* sdb,
                           double* sss) noexcept {
    const V tol = P::broadcast(kTol);
    const V tol2 = P::broadcast(kTol * kTol);
    const V atol2 = P::broadcast(kAngleTol * kAngleTol);
    const V zero = P::broadcast(0.0);
    const V one = P::broadcast(1.0);
    const V half = P::broadcast(0.5);
    const V three = P::broadcast(3.0);
    const V twopi = P::broadcast(geom::kTwoPi);
    const V vox = P::broadcast(ox);
    const V voy = P::broadcast(oy);
    for (std::size_t i = 0; i < n; i += W) {
      const V av_x = P::load(ax + i);
      const V av_y = P::load(ay + i);
      const V av_r = P::load(ar + i);
      const V bv_x = P::load(bx + i);
      const V bv_y = P::load(by + i);
      const V bv_r = P::load(br + i);

      const V dx = P::sub(bv_x, av_x);
      const V dy = P::sub(bv_y, av_y);
      const V d2 = P::add(P::mul(dx, dx), P::mul(dy, dy));
      const V d = P::sqrt(d2);
      const V rsum = P::add(av_r, bv_r);
      const V rdiff = P::abs(P::sub(av_r, bv_r));

      const M coincident = P::m_and(P::le(d, tol), P::le(rdiff, tol));
      const M disjoint = P::lt(P::add(rsum, tol), d);   // d > rsum + tol
      const M contained = P::lt(d, P::sub(rdiff, tol));  // d < rdiff - tol
      const M degenerate = P::m_or(coincident, P::m_or(disjoint, contained));

      // One reciprocal replaces the three divisions of the scalar routine
      // (t's 1/(2d), axis_x, axis_y) — a multiply-by-reciprocal rewrite
      // that perturbs each quotient by <= 1 ulp, orders of magnitude
      // inside every tolerance downstream, while removing two of the
      // three long-latency operations per lane.
      const V ra2 = P::mul(av_r, av_r);
      const V dsafe = P::select(degenerate, one, d);
      const V inv_d = P::div(one, dsafe);
      const V inv_den = P::select(degenerate, one, P::mul(inv_d, half));
      const V t =
          P::mul(P::sub(P::add(d2, ra2), P::mul(bv_r, bv_r)), inv_den);
      const V h2 = P::sub(ra2, P::mul(t, t));

      const V axis_x = P::mul(dx, inv_d);
      const V axis_y = P::mul(dy, inv_d);
      const V foot_x = P::add(av_x, P::mul(t, axis_x));
      const V foot_y = P::add(av_y, P::mul(t, axis_y));

      // approx_equal(a, b, tol) == |a - b| <= tol for finite inputs.
      const M ext_touch = P::le(P::abs(P::sub(d, rsum)), tol);
      const M int_touch = P::le(P::abs(P::sub(d, rdiff)), tol);
      const M tangent =
          P::m_or(P::le(h2, tol2), P::m_or(ext_touch, int_touch));

      // clamp(h2, 0, ra2): x < lo ? lo : (x > hi ? hi : x).
      const V hcl = P::select(P::lt(h2, zero), zero,
                              P::select(P::lt(ra2, h2), ra2, h2));
      const V h = P::sqrt(hcl);
      const V hup_x = P::mul(h, P::neg(axis_y));  // h * perp(axis)
      const V hup_y = P::mul(h, axis_x);

      P::store(v0x + i,
               P::sub(P::select(tangent, foot_x, P::add(foot_x, hup_x)), vox));
      P::store(v0y + i,
               P::sub(P::select(tangent, foot_y, P::add(foot_y, hup_y)), voy));
      P::store(v1x + i, P::sub(P::sub(foot_x, hup_x), vox));
      P::store(v1y + i, P::sub(P::sub(foot_y, hup_y), voy));

      // Stash the relation as the raw candidate count; the acceptance loop
      // below rewrites it into the documented code.
      const unsigned degb = P::to_bits(degenerate);
      const unsigned tanb = P::to_bits(tangent);
      for (std::size_t k = 0; k < W; ++k) {
        const unsigned bit = 1u << k;
        acc[i + k] = (degb & bit) != 0u ? 0 : ((tanb & bit) != 0u ? 1 : 2);
      }
    }

    // Acceptance loop, deliberately separate from the intersection loop:
    // one fused loop keeps ~25 vector temporaries live and spills hard on
    // 16-register ISAs, while two tight loops round-trip v0/v1 through L1
    // once and keep every register allocation local.
    for (std::size_t i = 0; i < n; i += W) {
      const V w0x = P::load(v0x + i);
      const V w0y = P::load(v0y + i);
      const V w1x = P::load(v1x + i);
      const V w1y = P::load(v1y + i);

      // Span classification.
      const V va = P::load(alpha + i);
      const V vb = P::load(beta + i);
      const M narrow = P::lt(P::sub(vb, va), three);
      const M full = P::m_and(P::m_and(P::le(va, zero), P::le(zero, va)),
                              P::m_and(P::le(vb, twopi), P::le(twopi, vb)));
      const V ux_a = P::load(uax + i);
      const V uy_a = P::load(uay + i);
      const V ux_b = P::load(ubx + i);
      const V uy_b = P::load(uby + i);

      // Acceptance of point 0 and point 1 under both decidable cases.
      const V vv0 = P::add(P::mul(w0x, w0x), P::mul(w0y, w0y));
      const V vv1 = P::add(P::mul(w1x, w1x), P::mul(w1y, w1y));
      const V m20 = P::mul(atol2, vv0);
      const V m21 = P::mul(atol2, vv1);
      const V ca0 = P::sub(P::mul(ux_a, w0y), P::mul(uy_a, w0x));
      const V cb0 = P::sub(P::mul(w0x, uy_b), P::mul(w0y, ux_b));
      const V ca1 = P::sub(P::mul(ux_a, w1y), P::mul(uy_a, w1x));
      const V cb1 = P::sub(P::mul(w1x, uy_b), P::mul(w1y, ux_b));
      const M nar0 =
          P::m_and(P::m_and(P::lt(zero, ca0), P::lt(m20, P::mul(ca0, ca0))),
                   P::m_and(P::lt(zero, cb0), P::lt(m20, P::mul(cb0, cb0))));
      const M nar1 =
          P::m_and(P::m_and(P::lt(zero, ca1), P::lt(m21, P::mul(ca1, ca1))),
                   P::m_and(P::lt(zero, cb1), P::lt(m21, P::mul(cb1, cb1))));
      // Full circle: reject only within kAngleTol of the +x axis
      // (sin(kAngleTol) == kAngleTol in double); acceptance is the
      // complement, taken via m_andnot(hit, all_true) = !hit.
      const M all_true = P::le(zero, zero);
      const M ful0 = P::m_andnot(
          P::m_and(P::lt(zero, w0x), P::le(P::mul(w0y, w0y), m20)), all_true);
      const M ful1 = P::m_andnot(
          P::m_and(P::lt(zero, w1x), P::le(P::mul(w1y, w1y), m21)), all_true);

      // Blend by span class: narrow lanes take the cross test, the rest the
      // axis test (don't-care on deferred lanes, masked out below).
      const M sel0 = P::m_or(P::m_and(narrow, nar0), P::m_andnot(narrow, ful0));
      const M sel1 = P::m_or(P::m_and(narrow, nar1), P::m_andnot(narrow, ful1));
      const M acc0 = P::m_and(P::lt(tol2, vv0), sel0);
      const M acc1 = P::m_and(P::lt(tol2, vv1), sel1);

      const unsigned decb = P::to_bits(P::m_or(narrow, full));
      const unsigned a0b = P::to_bits(acc0);
      const unsigned a1b = P::to_bits(acc1);
      for (std::size_t k = 0; k < W; ++k) {
        const unsigned bit = 1u << k;
        const int cnt = acc[i + k];
        if (cnt == 0) continue;
        if ((decb & bit) == 0u) {
          acc[i + k] = 4 | cnt;  // deferred: caller runs the atan2 test
        } else {
          acc[i + k] = ((a0b & bit) != 0u ? 1 : 0) |
                       (cnt == 2 && (a1b & bit) != 0u ? 2 : 0);
        }
      }
    }

    // Speculative whole-span evaluation: both disks' scaled radial
    // distance along the span's representative ray (bisector ua + ub for
    // widths < 3.0, else perp(ua)), in rho_pairs' exact operation order.
    // Spans that turn out cut-free — the common case — then skip the
    // sub-span evaluation batch entirely; spans with cuts ignore these
    // three streams.  Padding lanes write garbage nobody reads.
    for (std::size_t i = 0; i < n; i += W) {
      const V ux_a = P::load(uax + i);
      const V uy_a = P::load(uay + i);
      const M narrow =
          P::lt(P::sub(P::load(beta + i), P::load(alpha + i)), three);
      const V sxv =
          P::select(narrow, P::add(ux_a, P::load(ubx + i)), P::neg(uy_a));
      const V syv = P::select(narrow, P::add(uy_a, P::load(uby + i)), ux_a);
      const V s2 = P::add(P::mul(sxv, sxv), P::mul(syv, syv));
      P::store(sss + i, s2);

      const V arelx = P::sub(P::load(ax + i), vox);
      const V arely = P::sub(P::load(ay + i), voy);
      const V av_r = P::load(ar + i);
      const V adot = P::add(P::mul(arelx, sxv), P::mul(arely, syv));
      const V across = P::sub(P::mul(arelx, syv), P::mul(arely, sxv));
      const V arad =
          P::sub(P::mul(P::mul(av_r, av_r), s2), P::mul(across, across));
      P::store(sda + i, P::add(adot, P::sqrt(P::select(P::lt(arad, zero),
                                                       zero, arad))));

      const V brelx = P::sub(P::load(bx + i), vox);
      const V brely = P::sub(P::load(by + i), voy);
      const V bv_r = P::load(br + i);
      const V bdot = P::add(P::mul(brelx, sxv), P::mul(brely, syv));
      const V bcross = P::sub(P::mul(brelx, syv), P::mul(brely, sxv));
      const V brad =
          P::sub(P::mul(P::mul(bv_r, bv_r), s2), P::mul(bcross, bcross));
      P::store(sdb + i, P::add(bdot, P::sqrt(P::select(P::lt(brad, zero),
                                                       zero, brad))));
    }
  }

  // -- cut_finalize -------------------------------------------------------
  // ang = angle of v in [0, 2*pi), (ux, uy) = v / |v|.  The atan2 is the
  // classic two-step octant reduction: t = min/max of |vx|,|vy| lands in
  // [0, 1]; t > tan(pi/8) maps through u = (t-1)/(t+1) (atan identity
  // atan(t) = pi/4 + atan(u)); the polynomial covers |u| <= tan(pi/8);
  // quadrant fix-ups mirror the result back, all via mask selects.
  static void cut_finalize(std::size_t n, const double* vx, const double* vy,
                           double* ang, double* ux, double* uy) noexcept {
    const V zero = P::broadcast(0.0);
    const V one = P::broadcast(1.0);
    const V t0 = P::broadcast(kTanPi8);
    const V pi4 = P::broadcast(kQuarterPi);
    const V pi2 = P::broadcast(kHalfPi);
    const V piv = P::broadcast(geom::kPi);
    const V twopi = P::broadcast(geom::kTwoPi);
    for (std::size_t i = 0; i < n; i += W) {
      const V x = P::load(vx + i);
      const V y = P::load(vy + i);
      const V len = P::sqrt(P::add(P::mul(x, x), P::mul(y, y)));
      P::store(ux + i, P::div(x, len));
      P::store(uy + i, P::div(y, len));

      const V px = P::abs(x);
      const V py = P::abs(y);
      const M swap = P::lt(px, py);
      const V num = P::select(swap, px, py);
      const V den = P::select(swap, py, px);
      const V t = P::div(num, den);  // den = max(|x|,|y|) > kTol
      const M red = P::lt(t0, t);
      const V u =
          P::select(red, P::div(P::sub(t, one), P::add(t, one)), t);
      const V z = P::mul(u, u);
      V poly = P::broadcast(kAtanPoly[8]);
      poly = P::add(P::mul(poly, z), P::broadcast(kAtanPoly[7]));
      poly = P::add(P::mul(poly, z), P::broadcast(kAtanPoly[6]));
      poly = P::add(P::mul(poly, z), P::broadcast(kAtanPoly[5]));
      poly = P::add(P::mul(poly, z), P::broadcast(kAtanPoly[4]));
      poly = P::add(P::mul(poly, z), P::broadcast(kAtanPoly[3]));
      poly = P::add(P::mul(poly, z), P::broadcast(kAtanPoly[2]));
      poly = P::add(P::mul(poly, z), P::broadcast(kAtanPoly[1]));
      poly = P::add(P::mul(poly, z), P::broadcast(kAtanPoly[0]));
      const V at = P::add(u, P::mul(u, P::mul(z, poly)));

      V phi = P::select(red, P::add(pi4, at), at);
      phi = P::select(swap, P::sub(pi2, phi), phi);
      phi = P::select(P::lt(x, zero), P::sub(piv, phi), phi);
      phi = P::select(P::lt(y, zero), P::neg(phi), phi);
      phi = P::select(P::lt(phi, zero), P::add(phi, twopi), phi);
      P::store(ang + i, phi);
    }
  }

  // -- rho_pairs ----------------------------------------------------------
  // Scaled radial_distance_along (merge.cpp) for both candidate disks of a
  // sub-span, sharing the ray direction s:
  //   d = dot(rel, s) + sqrt(max(r^2 |s|^2 - cross(rel, s)^2, 0)).
  // Multiplying through by |s| preserves every comparison the caller makes
  // (sign of d_a - d_b, tolerance rescaled by |s|), so s never needs
  // normalizing.  The max() mirrors clamp(radicand, 0.0, radicand).
  static void rho_pairs(std::size_t n, const double* sx, const double* sy,
                        const double* ax, const double* ay, const double* ar,
                        const double* bx, const double* by, const double* br,
                        double ox, double oy, double* da, double* db,
                        double* ss) noexcept {
    const V zero = P::broadcast(0.0);
    const V vox = P::broadcast(ox);
    const V voy = P::broadcast(oy);
    for (std::size_t i = 0; i < n; i += W) {
      const V sxv = P::load(sx + i);
      const V syv = P::load(sy + i);
      const V s2 = P::add(P::mul(sxv, sxv), P::mul(syv, syv));
      P::store(ss + i, s2);

      const V arelx = P::sub(P::load(ax + i), vox);
      const V arely = P::sub(P::load(ay + i), voy);
      const V av_r = P::load(ar + i);
      const V adot = P::add(P::mul(arelx, sxv), P::mul(arely, syv));
      const V across = P::sub(P::mul(arelx, syv), P::mul(arely, sxv));
      const V arad =
          P::sub(P::mul(P::mul(av_r, av_r), s2), P::mul(across, across));
      const V aval = P::add(
          adot, P::sqrt(P::select(P::lt(arad, zero), zero, arad)));
      P::store(da + i, aval);

      const V brelx = P::sub(P::load(bx + i), vox);
      const V brely = P::sub(P::load(by + i), voy);
      const V bv_r = P::load(br + i);
      const V bdot = P::add(P::mul(brelx, sxv), P::mul(brely, syv));
      const V bcross = P::sub(P::mul(brelx, syv), P::mul(brely, sxv));
      const V brad =
          P::sub(P::mul(P::mul(bv_r, bv_r), s2), P::mul(bcross, bcross));
      const V bval = P::add(
          bdot, P::sqrt(P::select(P::lt(brad, zero), zero, brad)));
      P::store(db + i, bval);
    }
  }

  // -- sector_bound ---------------------------------------------------------
  // Pass 1 evaluates every disk's rho at each sector boundary in
  // rho_pairs' form with a unit direction b (|b|^2 = 1 drops out):
  //   rho = dot(rel, b) + sqrt(max(r^2 - cross(rel, b)^2, 0)),
  // and turns each sector's pair of boundary values into the disk's max
  // (stored) and min (folded into a per-lane running LB).  The peak lies
  // in sector [b_k, b_k+1] iff cross(rel, b_k) <= 0 <= cross(rel, b_k+1),
  // the trough iff the reverse; both are inclusive, which can only widen
  // a disk's range, and a centre at the relay (rel = 0) puts both in
  // every sector, where r + d = r - d = r is exact.  The lane maxima of LB
  // are reduced once; pass 2 compares the stored maxima against LB_k -
  // margin.  Padding lanes (sentinel radius -DBL_MAX, whose square is
  // +inf) enter LB as -inf and so never raise it.
  static void sector_bound(std::size_t n, const double* cx, const double* cy,
                           const double* r, double ox, double oy,
                           double margin, double* smax,
                           std::uint8_t* keep) noexcept {
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    const std::size_t np = (n + kBatchPad - 1) / kBatchPad * kBatchPad;
    const V zero = P::broadcast(0.0);
    const V neg_inf = P::broadcast(kNegInf);
    const V vox = P::broadcast(ox);
    const V voy = P::broadcast(oy);
    double lb_lane[kSectors * W];
    for (double& v : lb_lane) v = kNegInf;
    for (std::size_t i = 0; i < np; i += W) {
      const V relx = P::sub(P::load(cx + i), vox);
      const V rely = P::sub(P::load(cy + i), voy);
      const V rv = P::load(r + i);
      const M real = P::le(zero, rv);
      const V r2 = P::mul(rv, rv);
      const V d = P::sqrt(P::add(P::mul(relx, relx), P::mul(rely, rely)));
      const V peak = P::add(rv, d);
      const V trough = P::sub(rv, d);
      // cross(rel, b_k) and rho at boundary k.  The table is exactly
      // symmetric: b_k+4, b_k+8 and b_k+12 are b_k turned by 90, 180 and
      // 270 degrees, so their (dot, cross) pairs are boundary k's turned to
      // (-cross, dot), (-dot, -cross) and (cross, -dot), bit for bit but for
      // the sign of an exact zero, which no compare, max or sum below sees.
      // Boundaries k and k+8 share r^2 - cross^2, k+4 and k+12 share
      // r^2 - dot^2: 4 pairs and 8 roots per vector, not 16 and 16.
      struct Edge {
        V cr;
        V rho;
      };
      const auto root = [&](V rad) {
        return P::sqrt(P::select(P::lt(rad, zero), zero, rad));
      };
      Edge edge[kSectors];
      for (std::size_t k = 0; k < kSectors / 4; ++k) {
        const V bx = P::broadcast(kSectorUx[k]);
        const V by = P::broadcast(kSectorUy[k]);
        const V dot = P::add(P::mul(relx, bx), P::mul(rely, by));
        const V cr = P::sub(P::mul(relx, by), P::mul(rely, bx));
        const V s = root(P::sub(r2, P::mul(cr, cr)));
        const V t = root(P::sub(r2, P::mul(dot, dot)));
        edge[k] = {cr, P::add(dot, s)};
        edge[k + 4] = {dot, P::sub(t, cr)};
        edge[k + 8] = {P::neg(cr), P::sub(s, dot)};
        edge[k + 12] = {P::neg(dot), P::add(cr, t)};
      }
      for (std::size_t k = 0; k < kSectors; ++k) {
        const Edge& lo = edge[k];
        const Edge& hi = edge[(k + 1) % kSectors];
        const M has_peak = P::m_and(P::le(lo.cr, zero), P::le(zero, hi.cr));
        const M has_trough =
            P::m_and(P::le(zero, lo.cr), P::le(hi.cr, zero));
        const M lo_high = P::lt(hi.rho, lo.rho);
        const V hi_v = P::select(lo_high, lo.rho, hi.rho);
        const V lo_v = P::select(lo_high, hi.rho, lo.rho);
        P::store(smax + k * np + i, P::select(has_peak, peak, hi_v));
        const V mn = P::select(real, P::select(has_trough, trough, lo_v),
                               neg_inf);
        const V lb = P::load(lb_lane + k * W);
        P::store(lb_lane + k * W, P::select(P::lt(lb, mn), mn, lb));
      }
    }
    double thr[kSectors];
    for (std::size_t k = 0; k < kSectors; ++k) {
      double lb = lb_lane[k * W];
      for (std::size_t l = 1; l < W; ++l) {
        lb = lb < lb_lane[k * W + l] ? lb_lane[k * W + l] : lb;
      }
      thr[k] = lb - margin;
    }
    for (std::size_t i = 0; i < np; i += W) {
      M drop = P::lt(P::load(smax + i), P::broadcast(thr[0]));
      for (std::size_t k = 1; k < kSectors; ++k) {
        drop = P::m_and(drop, P::lt(P::load(smax + k * np + i),
                                    P::broadcast(thr[k])));
      }
      const unsigned bits = P::to_bits(drop);
      for (std::size_t l = 0; l < W; ++l) {
        keep[i + l] = ((bits >> l) & 1u) != 0u ? 0 : 1;
      }
    }
  }
};

/// Assemble one policy's kernels into a dispatch-table entry.
template <class P>
[[nodiscard]] constexpr SkylineKernels make_kernels(
    const char* name) noexcept {
  return SkylineKernels{name, &BatchKernels<P>::circle_isect,
                        &BatchKernels<P>::cut_finalize,
                        &BatchKernels<P>::rho_pairs,
                        &BatchKernels<P>::sector_bound};
}

}  // namespace mldcs::geom::simd::detail
