#pragma once

/// \file simd.hpp
/// Runtime-dispatched batch kernels for the skyline geometry hot path.
///
/// The divide-and-conquer skyline engine batches its per-span geometry —
/// circle-circle intersection, cut-angle finalization (atan2 + unit
/// vector), paired radial-distance evaluation, and the sector-bound
/// prefilter — into flat task arrays (see geom::DiskSoA) and runs each
/// batch through one of these kernels.  Every kernel is implemented once,
/// templated over a lane-width policy (simd_kernels_impl.hpp), and
/// instantiated per ISA:
///
///   * "scalar" — width-1 emulation, always compiled in.  This is the
///     differential reference: it executes the exact same operation
///     sequence as the wide policies, one lane at a time.
///   * "avx2"   — 4 x double, compiled on x86-64 when MLDCS_ENABLE_SIMD is
///     ON, selected at runtime only if the CPU reports AVX2.
///   * "neon"   — 2 x double, compiled on AArch64 (NEON is baseline there).
///
/// Bit-identity contract: kernels use only elementwise correctly-rounded
/// IEEE-754 double operations (add/sub/mul/div/sqrt/abs/compare/select) in
/// an identical order across policies, and the kernel translation units
/// are built with -ffp-contract=off so the compiler cannot fuse a mul+add
/// into an FMA on one policy but not another.  The one cross-lane step is
/// SectorBoundFn's maximum over disks, and a maximum is exact whatever the
/// grouping.  Consequently scalar and SIMD dispatch produce byte-identical
/// outputs, which the engine turns into byte-identical skyline arcs.
///
/// Dispatch order: the `MLDCS_SIMD` environment variable ("off" or
/// "scalar" forces the fallback), else the best kernel the CPU supports,
/// else scalar.  The choice is made once per process.

#include <cstddef>
#include <cstdint>

namespace mldcs::geom::simd {

/// Callers pad every task batch up to a multiple of this many lanes
/// (equal to DiskSoA::kLaneBlock) with neutral inputs; kernels assume
/// `n % kBatchPad == 0` and that all arrays are readable/writable up to n.
inline constexpr std::size_t kBatchPad = 8;

/// Batched geom::intersect_circles against a common origin `o` = (ox, oy),
/// fused with the Merge span-acceptance test.  Lane i intersects circle
/// (ax, ay, ar)[i] with (bx, by, br)[i], writes the intersection points
/// *relative to o* (v0 = p0 - o, v1 = p1 - o; tangent lanes get
/// v0 = foot - o), and decides which points fall strictly inside the span
/// [alpha, beta][i] whose endpoint unit vectors are (uax, uay) / (ubx,
/// uby)[i]: spans narrower than 3.0 rad test two cross products against
/// the endpoint units, exact full-circle spans [0.0, 2*pi] test proximity
/// to the +x axis, and anything between is deferred to the caller.
/// acc[i] encodes the verdict: 0 = nothing to do (coincident / disjoint /
/// contained, or no point accepted); bit 0 / bit 1 = intersection point
/// 0 / 1 accepted; bit 2 = deferred — the caller must run the scalar
/// atan2 acceptance itself, on (acc[i] & 3) candidate points.
/// Arithmetic and tolerance tests replicate intersect_circles
/// (geometry/circle_intersect.cpp), up to a multiply-by-reciprocal
/// rewrite of its divisions (<= 1 ulp per quotient, far inside kTol).
///
/// The kernel additionally evaluates both disks' scaled radial distance
/// along the span's representative ray — the midpoint bisector ua + ub
/// for spans narrower than 3.0 rad, else the perpendicular of ua — into
/// (sda, sdb, sss), exactly as RhoPairsFn would (sss = |s|^2).  Spans
/// that end up cut-free (the common case) then need no separate
/// evaluation batch; spans with cuts simply ignore the speculation.
using CircleIsectFn = void (*)(std::size_t n, const double* ax,
                               const double* ay, const double* ar,
                               const double* bx, const double* by,
                               const double* br, const double* uax,
                               const double* uay, const double* ubx,
                               const double* uby, const double* alpha,
                               const double* beta, double ox, double oy,
                               double* v0x, double* v0y, double* v1x,
                               double* v1y, int* acc, double* sda,
                               double* sdb, double* sss);

/// Batched cut finalization: for each accepted cut vector v = p - o
/// (guaranteed |v| > kTol by the caller), writes ang = the angle of v in
/// [0, 2*pi) and the unit direction (ux, uy) = v / |v|.  The angle uses a
/// branch-free polynomial atan2 (max error ~1.5e-14 rad, five orders of
/// magnitude inside kAngleTol) so wide lanes need no libm calls.
using CutFinalizeFn = void (*)(std::size_t n, const double* vx,
                               const double* vy, double* ang, double* ux,
                               double* uy);

/// Batched paired radial-distance evaluation along *unnormalized* ray
/// directions s = (sx, sy): lane i writes
///   da[i] = dot(a - o, s) + sqrt(max(ar^2 |s|^2 - cross(a - o, s)^2, 0))
/// (= |s| * rho_a at the ray angle) and db[i] likewise — the scaled form
/// of merge.cpp's radial_distance_along, letting the caller use the cheap
/// bisector s = u_lo + u_hi instead of a normalized unit vector — plus
/// ss[i] = |s|^2, which the caller's tolerance gate rescales by.
using RhoPairsFn = void (*)(std::size_t n, const double* sx,
                            const double* sy, const double* ax,
                            const double* ay, const double* ar,
                            const double* bx, const double* by,
                            const double* br, double ox, double oy,
                            double* da, double* db, double* ss);

/// Sectors of the sector-bound prefilter: boundaries at 2*pi*k/kSectors
/// around the relay.  On the paper's U[1,2] density 8 was measurably
/// slower per relay and 16, 24 and 32 were within noise of each other
/// (docs/PERFORMANCE.md); 16 has an exactly symmetric boundary table.
inline constexpr std::size_t kSectors = 16;

/// Sector-bound prefilter over a whole local disk set around the relay
/// o = (ox, oy).  Each disk's radial function rho_i (Corollary 2) peaks at
/// r + d toward its centre, bottoms at r - d opposite, and is monotone in
/// between, so over each of the kSectors sectors its maximum and minimum
/// are its two boundary values — or r + d / r - d where the signs of the
/// two boundary cross products put the peak / trough inside the sector.
/// LB_k = max_i min_ik bounds the envelope from below in sector k; disk i
/// gets keep[i] = 0 iff max_ik < LB_k - margin in every sector (then it
/// trails the envelope everywhere and owns no skyline arc), else 1.
/// (cx, cy, r) hold the n disks sentinel-padded to the next kBatchPad
/// multiple np (see DiskSoA); padding lanes never feed LB.  `smax` is
/// scratch of kSectors * np doubles; keep is written for all np lanes.
using SectorBoundFn = void (*)(std::size_t n, const double* cx,
                               const double* cy, const double* r, double ox,
                               double oy, double margin, double* smax,
                               std::uint8_t* keep);

/// One ISA's kernel set.  All four entries always come from the same
/// policy instantiation, so mixing is impossible.
struct SkylineKernels {
  const char* name;  ///< "scalar", "avx2", or "neon"
  CircleIsectFn circle_isect;
  CutFinalizeFn cut_finalize;
  RhoPairsFn rho_pairs;
  SectorBoundFn sector_bound;
};

/// The width-1 reference kernels (always available).
[[nodiscard]] const SkylineKernels& scalar_kernels() noexcept;

/// The kernels selected for this process: scalar if the MLDCS_SIMD
/// environment variable is "off"/"scalar" or nothing better is compiled
/// in/supported, else the widest supported ISA.  The decision is made on
/// first call and cached.
[[nodiscard]] const SkylineKernels& active_kernels() noexcept;

/// ISA the CPU supports among the compiled-in kernels ("avx2", "neon",
/// "none") — independent of the MLDCS_SIMD override.
[[nodiscard]] const char* detected_isa() noexcept;

/// Name of the kernel set active_kernels() returns.
[[nodiscard]] const char* dispatch_choice() noexcept;

/// True when a wide (non-scalar) kernel set was compiled into this binary
/// (MLDCS_ENABLE_SIMD=ON and the target architecture has one).
[[nodiscard]] bool simd_compiled() noexcept;

/// Test/bench hook: force active_kernels() to return `k` for this object's
/// lifetime.  Process-global and not thread-safe — install it before
/// spawning workers and keep it alive until they quiesce (the differential
/// tests and the perf suite both use it single-threaded).
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const SkylineKernels& k) noexcept;
  ~ScopedKernelOverride();

  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const SkylineKernels* prev_;
};

}  // namespace mldcs::geom::simd
