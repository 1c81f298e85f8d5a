// Differential tests for the SIMD skyline kernels (geometry/simd.hpp):
// the workspace engine under runtime dispatch must produce *byte-equal*
// arcs to the same engine pinned to the scalar reference kernels, across
// a corpus built from the degenerate regimes the kernels special-case —
// coincident centers, dominating disks, sub-kAngleTol breakpoint
// clusters, tangencies, and batch sizes that exercise lane remainders
// (n < lane width and n % lane width != 0; kernels see padded batches
// either way, but the *task counts* land on every remainder).
//
// The sector-bound prefilter kernel is tested on its own as well: its keep
// flags must agree across kernel sets, no disk it drops may own an arc of
// the brute-force skyline, and every dropped disk must trail the sampled
// envelope by more than kEnvelopeMargin — on random sets and on inputs
// aimed at its sector boundaries, its zero-distance and zero-transition
// cases, and its tie cases.
//
// tests/CMakeLists.txt registers this binary twice: once as-is (runtime
// dispatch picks the widest compiled-in ISA the CPU supports) and once
// with MLDCS_SIMD=off in the environment (suffix ".simd_off"), which
// forces the fallback before the first dispatch decision — proving the
// override works and that the corpus passes on the scalar path alone.

#include "geometry/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "core/skyline_reference.hpp"
#include "geometry/angle.hpp"
#include "geometry/disk.hpp"
#include "geometry/disk_soa.hpp"
#include "geometry/radial.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

namespace simd = geom::simd;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Run the engine under runtime dispatch and pinned to the scalar
/// reference, and require bitwise-equal arc output (bit patterns, not
/// double equality: -0.0 vs 0.0 or a 1-ulp drift must fail).
void expect_bit_identical(const std::vector<geom::Disk>& disks,
                          geom::Vec2 o, const std::string& label) {
  SkylineWorkspace ws;
  std::vector<Arc> active;
  std::vector<Arc> scalar;
  compute_skyline_arcs(disks, o, ws, active);
  {
    const simd::ScopedKernelOverride pin(simd::scalar_kernels());
    compute_skyline_arcs(disks, o, ws, scalar);
  }
  ASSERT_EQ(active.size(), scalar.size()) << label;
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(bits(active[i].start), bits(scalar[i].start))
        << label << ": arc " << i << " start";
    EXPECT_EQ(bits(active[i].end), bits(scalar[i].end))
        << label << ": arc " << i << " end";
    EXPECT_EQ(active[i].disk, scalar[i].disk)
        << label << ": arc " << i << " disk";
  }
}

TEST(SkylineSimdTest, CoincidentCentersAndExactDuplicates) {
  sim::Xoshiro256 rng(0xC01DC01DULL);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<geom::Disk> disks = narrow_band_set(rng, 12).disks;
    // A stack of concentric disks at a random member's center, plus an
    // exact duplicate of another member: the prefilter and the merge
    // tie-breaks must resolve both identically on every kernel set.
    // Every stacked radius stays >= the center's distance to the relay,
    // keeping the local-disk-set premise (o inside every disk) intact.
    const geom::Disk base = disks[1 + static_cast<std::size_t>(
                                          rng.uniform(0.0, 10.0))];
    const geom::Vec2 c = base.center;
    const double d = std::sqrt(c.x * c.x + c.y * c.y);
    disks.push_back({c, d + (base.radius - d) * 0.25});
    disks.push_back({c, base.radius * 0.999});
    disks.push_back({c, base.radius});  // coincident *and* equal radius
    disks.push_back(disks[3]);          // exact duplicate
    expect_bit_identical(disks, {0.0, 0.0},
                         "coincident rep " + std::to_string(rep));
  }
}

TEST(SkylineSimdTest, DominatingDiskCollapsesEitherWay) {
  sim::Xoshiro256 rng(0xD0111ACEULL);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<geom::Disk> disks = narrow_band_set(rng, 24).disks;
    // One disk strictly containing every other: the skyline collapses
    // to a single full-circle arc; the sector bound drops the rest.
    disks.push_back({{0.01, -0.02}, 5.0});
    expect_bit_identical(disks, {0.0, 0.0},
                         "dominating rep " + std::to_string(rep));
  }
}

TEST(SkylineSimdTest, SubAngleTolBreakpointClusters) {
  sim::Xoshiro256 rng(0x70CC1U);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<geom::Disk> disks = narrow_band_set(rng, 10).disks;
    // Shadow three disks with copies rotated about the origin by half
    // of kAngleTol: every breakpoint of the original reappears within
    // tolerance, forcing the equal-angle and equal-radius tie-break
    // paths in Merge's cut handling.
    const double eps = 0.5 * geom::kAngleTol;
    const double c = std::cos(eps);
    const double s = std::sin(eps);
    for (std::size_t i = 1; i <= 3; ++i) {
      const geom::Vec2 p = disks[i].center;
      disks.push_back(
          {{c * p.x - s * p.y, s * p.x + c * p.y}, disks[i].radius});
    }
    expect_bit_identical(disks, {0.0, 0.0},
                         "sub-tol rep " + std::to_string(rep));
  }
}

TEST(SkylineSimdTest, TangentAndContainedPairs) {
  sim::Xoshiro256 rng(0x7A46E47ULL);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<geom::Disk> disks = narrow_band_set(rng, 8).disks;
    // Internal tangencies (dist == |r_a - r_b|, from either side) and a
    // strict containment: the h^2 <= 0 clamp must pick the same
    // tangent-point verdict on every kernel set.  (External tangency
    // cannot occur in a local disk set — every disk contains o, so all
    // pairs overlap.)
    disks.push_back({{0.3, 0.0}, 1.31});   // contains disk 0, tangent
    disks.push_back({{0.5, 0.0}, 0.51});   // inside disk 0, tangent
    disks.push_back({{0.1, 0.1}, 0.25});   // strictly contained
    expect_bit_identical(disks, {0.0, 0.0},
                         "tangent rep " + std::to_string(rep));
  }
}

TEST(SkylineSimdTest, LaneRemainderSizes) {
  // Below any lane width, exactly at it, and off every multiple: the
  // batches the engine builds from these sets land on every n % W.
  sim::Xoshiro256 rng(0x5123E5ULL);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{7},
                              std::size_t{9}, std::size_t{13},
                              std::size_t{17}, std::size_t{31}}) {
    for (int rep = 0; rep < 5; ++rep) {
      expect_bit_identical(narrow_band_set(rng, n).disks, {0.0, 0.0},
                           "n=" + std::to_string(n) + " rep " +
                               std::to_string(rep));
    }
  }
}

TEST(SkylineSimdTest, RandomizedDegenerateFuzz) {
  // Mixed fuzz: a random base set with a random sprinkle of every
  // degeneracy above, off-origin evaluation points included.
  sim::Xoshiro256 rng(0xF0220FULL);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 3 + static_cast<std::size_t>(
                                  rng.uniform(0.0, 40.0));
    std::vector<geom::Disk> disks = narrow_band_set(rng, n).disks;
    if (rng.uniform() < 0.5) {  // coincident-center stack
      const geom::Disk base = disks[static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(n)))];
      const geom::Vec2 c = base.center;
      // Radius in [|c - o|, base.radius]: coincident centers without
      // breaking the local-disk-set premise.
      const double d = std::sqrt(c.x * c.x + c.y * c.y);
      disks.push_back(
          {c, d + (base.radius - d) * rng.uniform(0.0, 1.0)});
    }
    if (rng.uniform() < 0.3) {  // exact duplicate
      disks.push_back(disks[static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(n)))]);
    }
    if (rng.uniform() < 0.3) {  // dominator
      disks.push_back({{rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)},
                       4.0 + rng.uniform(0.0, 2.0)});
    }
    if (rng.uniform() < 0.5) {  // sub-tolerance rotated shadow
      const double eps = geom::kAngleTol * rng.uniform(0.01, 0.99);
      const geom::Vec2 p = disks[1].center;
      disks.push_back({{std::cos(eps) * p.x - std::sin(eps) * p.y,
                        std::sin(eps) * p.x + std::cos(eps) * p.y},
                       disks[1].radius});
    }
    expect_bit_identical(disks, {0.0, 0.0},
                         "fuzz rep " + std::to_string(rep));
  }
}

/// `sc` moved by (dx, dy): the engine always sees the relay off the origin,
/// where a padding lane's centre is no longer the relay itself.
Scenario shifted(const Scenario& sc, double dx, double dy) {
  Scenario out{{sc.origin.x + dx, sc.origin.y + dy}, {}};
  for (const geom::Disk& d : sc.disks) {
    out.disks.push_back({{d.center.x + dx, d.center.y + dy}, d.radius});
  }
  return out;
}

/// One kernel set's sector-bound verdicts for `disks` around `o`: keep[i]
/// for the n real disks, plus the per-sector maxima of the real lanes.
struct SectorVerdict {
  std::vector<std::uint8_t> keep;
  std::vector<double> smax;
};

SectorVerdict sector_bound(const simd::SkylineKernels& k,
                           const std::vector<geom::Disk>& disks,
                           geom::Vec2 o) {
  geom::DiskSoA soa;
  soa.assign(disks);
  const std::size_t n = disks.size();
  const std::size_t np = geom::DiskSoA::padded(n);
  std::vector<double> smax(simd::kSectors * np);
  std::vector<std::uint8_t> keep(np, 7);  // an unwritten flag stays 7
  k.sector_bound(n, soa.cx.data(), soa.cy.data(), soa.r.data(), o.x, o.y,
                 kEnvelopeMargin, smax.data(), keep.data());
  SectorVerdict v;
  v.keep.assign(keep.begin(), keep.begin() + static_cast<std::ptrdiff_t>(n));
  for (std::size_t s = 0; s < simd::kSectors; ++s) {
    for (std::size_t i = 0; i < n; ++i) v.smax.push_back(smax[s * np + i]);
  }
  return v;
}

/// The active and the scalar kernels agree byte for byte: keep flags and
/// every real lane's per-sector maximum.  Returns the active verdict.
SectorVerdict expect_sector_agreement(const std::vector<geom::Disk>& disks,
                                      geom::Vec2 o,
                                      const std::string& label) {
  SectorVerdict active = sector_bound(simd::active_kernels(), disks, o);
  const SectorVerdict scalar =
      sector_bound(simd::scalar_kernels(), disks, o);
  EXPECT_EQ(active.keep, scalar.keep) << label;
  EXPECT_EQ(active.smax.size(), scalar.smax.size()) << label;
  for (std::size_t i = 0; i < active.smax.size() && i < scalar.smax.size();
       ++i) {
    EXPECT_EQ(bits(active.smax[i]), bits(scalar.smax[i]))
        << label << ": sector max " << i;
  }
  for (const std::uint8_t k : active.keep) {
    EXPECT_TRUE(k == 0 || k == 1) << label;
  }
  return active;
}

/// Soundness of the bound on one set: no dropped disk owns an arc of the
/// brute-force skyline, and every dropped disk trails the envelope by more
/// than kEnvelopeMargin on a 4096-angle grid.  Returns the drop count.
std::size_t expect_sound(const std::vector<geom::Disk>& disks, geom::Vec2 o,
                         const std::vector<std::uint8_t>& keep,
                         const std::string& label) {
  std::size_t dropped = 0;
  const Skyline brute = compute_skyline_bruteforce(disks, o);
  for (const Arc& a : brute.arcs()) {
    EXPECT_EQ(keep[a.disk], 1) << label << ": disk " << a.disk
                               << " owns an arc but was dropped";
  }
  constexpr int kGrid = 4096;
  std::vector<double> env(kGrid);
  for (int g = 0; g < kGrid; ++g) {
    env[static_cast<std::size_t>(g)] =
        geom::radial_envelope(disks, o, geom::kTwoPi * g / kGrid);
  }
  for (std::size_t i = 0; i < disks.size(); ++i) {
    if (keep[i] != 0) continue;
    ++dropped;
    double gap = std::numeric_limits<double>::infinity();
    for (int g = 0; g < kGrid; ++g) {
      const double rho =
          geom::radial_distance(disks[i], o, geom::kTwoPi * g / kGrid);
      gap = std::min(gap, env[static_cast<std::size_t>(g)] - rho);
    }
    EXPECT_GT(gap, kEnvelopeMargin)
        << label << ": dropped disk " << i << " comes within " << gap
        << " of the envelope";
  }
  return dropped;
}

/// Both checks plus the engine's SIMD/scalar arc identity on one set.
SectorVerdict check_sector_set(const std::vector<geom::Disk>& disks,
                               geom::Vec2 o, const std::string& label) {
  SectorVerdict v = expect_sector_agreement(disks, o, label);
  expect_sound(disks, o, v.keep, label);
  expect_bit_identical(disks, o, label);
  return v;
}

TEST(SectorBoundTest, ActiveAndScalarAgreeOnEveryLaneRemainder) {
  // n = 1..17 covers every remainder of every lane width and every count
  // of padding lanes; U[1,2] neighbourhoods drop plenty, the narrow band
  // almost nothing.
  sim::Xoshiro256 rng(0x5EC7041ULL);
  std::size_t dropped = 0;
  for (std::size_t n = 1; n <= 17; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      const Scenario sc =
          shifted(random_local_set(rng, n, true), rng.uniform(0.0, 12.5),
                  rng.uniform(0.0, 12.5));
      const SectorVerdict v = expect_sector_agreement(
          sc.disks, sc.origin,
          "random n=" + std::to_string(n) + " rep " + std::to_string(rep));
      for (const std::uint8_t k : v.keep) dropped += k == 0 ? 1 : 0;
      (void)expect_sector_agreement(
          narrow_band_set(rng, n).disks, {0.0, 0.0},
          "narrow n=" + std::to_string(n) + " rep " + std::to_string(rep));
    }
  }
  EXPECT_GT(dropped, 0U) << "the corpus never exercised a drop";
}

TEST(SectorBoundTest, DroppedDisksOwnNoArcAndTrailTheEnvelope) {
  sim::Xoshiro256 rng(0x50BDULL);
  std::size_t dropped = 0;
  for (int rep = 0; rep < 60; ++rep) {
    const std::size_t n = 3 + static_cast<std::size_t>(rep / 2);
    Scenario sc = random_local_set(rng, n, rep % 3 != 2);
    if (rep % 2 == 1) {
      sc = shifted(sc, rng.uniform(0.0, 12.5), rng.uniform(0.0, 12.5));
    }
    const std::string label = "random rep " + std::to_string(rep);
    const SectorVerdict v = expect_sector_agreement(sc.disks, sc.origin,
                                                    label);
    dropped += expect_sound(sc.disks, sc.origin, v.keep, label);
  }
  EXPECT_GT(dropped, 0U) << "the corpus never exercised a drop";
  // One huge disk over many small ones: everything else goes.
  const Scenario dom = dominated_set(rng, 40);
  const SectorVerdict v = check_sector_set(dom.disks, dom.origin,
                                           "dominated_set");
  std::size_t kept = 0;
  for (const std::uint8_t k : v.keep) kept += k;
  EXPECT_EQ(kept, 1U);
}

TEST(SectorBoundTest, PeaksAndTroughsOnSectorBoundaries) {
  // Centres at exactly 2*pi*j/16 (every sector boundary) and 2*pi*j/32
  // (every boundary and every sector midpoint) from the relay put each
  // disk's peak, and its trough opposite, on a boundary: the inclusive
  // sign tests must still bound the disk from both sides.
  sim::Xoshiro256 rng(0xB0D4ULL);
  for (const int parts : {16, 32}) {
    for (int rep = 0; rep < 6; ++rep) {
      std::vector<geom::Disk> disks;
      disks.push_back({{0.0, 0.0}, rng.uniform(1.0, 2.0)});
      for (int j = 0; j < parts; ++j) {
        const double r = rep % 2 == 0 ? 1.5 : rng.uniform(1.0, 2.0);
        const double d = rng.uniform(0.0, r);
        const double th = geom::kTwoPi * j / parts;
        disks.push_back({{d * std::cos(th), d * std::sin(th)}, r});
      }
      check_sector_set(disks, {0.0, 0.0},
                       "boundary " + std::to_string(parts) + " rep " +
                           std::to_string(rep));
    }
  }
}

TEST(SectorBoundTest, PeakOrTroughInsideASectorDecidesTheBound) {
  // Sets where the bound is right only if it uses r + d / r - d inside
  // the sector that holds them, at every sector and lane position, with
  // the relay at the origin and off it.
  sim::Xoshiro256 rng(0x9EA4ULL);
  for (std::size_t k = 0; k < simd::kSectors; ++k) {
    const double lo = geom::kTwoPi * static_cast<double>(k) / simd::kSectors;
    const double width = geom::kTwoPi / simd::kSectors;
    for (const double at : {0.5, rng.uniform(0.05, 0.95)}) {
      const double phi = lo + at * width;
      const geom::Vec2 u = geom::unit_at(phi);
      const std::size_t fillers = static_cast<std::size_t>(k) % 9;
      // Peak: disk i (d 0.9, r 1.0) pokes above the relay's disk (1.89)
      // only near phi, below it at both sector boundaries; disk j raises
      // the envelope opposite, above i's reach of 1.9.
      std::vector<geom::Disk> peak{{{0.0, 0.0}, 1.89}};
      for (std::size_t f = 0; f < fillers; ++f) {
        peak.push_back({0.1 * geom::unit_at(rng.uniform(0.0, 6.0)), 0.5});
      }
      const std::size_t i_peak = peak.size();
      peak.push_back({0.9 * u, 1.0});
      peak.push_back({-1.0 * u, 1.5});
      // Trough: disk j (d 0.9, r 1.5) bottoms at 0.6 toward phi, where
      // disk i (reach 0.603) pokes above it.  j's boundary values in that
      // sector are ~0.607, so a bound that ignored the trough would drop i.
      std::vector<geom::Disk> trough{{{0.0, 0.0}, 0.3}};
      for (std::size_t f = 0; f < fillers; ++f) {
        trough.push_back({0.05 * geom::unit_at(rng.uniform(0.0, 6.0)), 0.1});
      }
      trough.push_back({-0.9 * u, 1.5});
      const std::size_t i_trough = trough.size();
      trough.push_back({0.3 * u, 0.303});
      for (const double shift : {0.0, 7.3}) {
        const std::string label = "sector " + std::to_string(k) + " at " +
                                  std::to_string(at) + " shift " +
                                  std::to_string(shift);
        const Scenario p = shifted({{0.0, 0.0}, peak}, shift, -0.6 * shift);
        EXPECT_EQ(check_sector_set(p.disks, p.origin, "peak " + label)
                      .keep[i_peak],
                  1)
            << label;
        const Scenario t = shifted({{0.0, 0.0}, trough}, shift, 0.4 * shift);
        EXPECT_EQ(check_sector_set(t.disks, t.origin, "trough " + label)
                      .keep[i_trough],
                  1)
            << label;
      }
    }
  }
}

TEST(SectorBoundTest, CentreAtTheRelayAndRelayOnTheBoundary) {
  sim::Xoshiro256 rng(0xCE47ULL);
  for (int rep = 0; rep < 10; ++rep) {
    Scenario sc = random_local_set(rng, 8 + static_cast<std::size_t>(rep),
                                   true);
    // d = 0: rho is the constant r, peak and trough in every sector.
    sc.disks.push_back({sc.origin, rng.uniform(0.5, 2.5)});
    // d = r: the relay on the boundary, rho = 0 on a half circle (the
    // zero-transition case), once on a sector boundary and once off it.
    for (const double th : {geom::kTwoPi * 3 / 16, rng.uniform(0.0, 6.0)}) {
      const double r = rng.uniform(1.0, 2.0);
      sc.disks.push_back({{sc.origin.x + r * std::cos(th),
                           sc.origin.y + r * std::sin(th)},
                          r});
    }
    check_sector_set(sc.disks, sc.origin, "relay rep " + std::to_string(rep));
  }
  // A lone centred disk is the whole skyline.
  const std::vector<geom::Disk> lone{{{0.0, 0.0}, 1.0}};
  EXPECT_EQ(check_sector_set(lone, {0.0, 0.0}, "lone").keep[0], 1);
}

TEST(SectorBoundTest, TiesThatTouchTheEnvelopeAreKept) {
  // The disk reaching farthest (largest d + r) owns the envelope at its
  // peak.  Its exact duplicate, a concentric copy within the margin, and a
  // disk internally tangent to it at that peak all reach the envelope, so
  // the bound must keep them and leave the tie-breaks to Merge.
  sim::Xoshiro256 rng(0x71E5ULL);
  for (int rep = 0; rep < 20; ++rep) {
    Scenario sc = random_local_set(rng, 6 + static_cast<std::size_t>(rep),
                                   true);
    std::size_t top = 0;
    double reach = -1.0;
    for (std::size_t i = 0; i < sc.disks.size(); ++i) {
      const double r =
          (sc.disks[i].center - sc.origin).norm() + sc.disks[i].radius;
      if (r > reach) {
        reach = r;
        top = i;
      }
    }
    const geom::Disk b = sc.disks[top];
    const geom::Vec2 rel = b.center - sc.origin;
    const double d = rel.norm();
    const std::size_t dup = sc.disks.size();
    sc.disks.push_back(b);
    sc.disks.push_back({b.center, b.radius - 0.5 * kEnvelopeMargin});
    std::size_t tangent = dup;
    if (d > 1e-3) {
      const double s = 0.25 * (b.radius - d);
      tangent = sc.disks.size();
      sc.disks.push_back({b.center + (s / d) * rel, b.radius - s});
    }
    const SectorVerdict v = check_sector_set(
        sc.disks, sc.origin, "ties rep " + std::to_string(rep));
    EXPECT_EQ(v.keep[top], 1);
    EXPECT_EQ(v.keep[dup], 1);
    EXPECT_EQ(v.keep[dup + 1], 1);
    EXPECT_EQ(v.keep[tangent], 1);
  }
  for (const Scenario& sc : {duplicate_set(9), concentric_set(9),
                             tangent_pair()}) {
    check_sector_set(sc.disks, sc.origin, "scenario");
  }
  const Scenario dup = duplicate_set(9);
  for (const std::uint8_t k :
       sector_bound(simd::active_kernels(), dup.disks, dup.origin).keep) {
    EXPECT_EQ(k, 1);
  }
}

TEST(SectorBoundTest, Figure41CentralDiskIsKept) {
  // Figure 4.1: the central disk owns k arcs between the petals; dropping
  // it would lose all of them.
  for (std::size_t k = 3; k <= 16; ++k) {
    for (const double frac : {0.1, 0.5, 0.9}) {
      const Scenario sc = figure41_configuration(k, frac);
      const SectorVerdict v = check_sector_set(
          sc.disks, sc.origin,
          "figure41 k=" + std::to_string(k) + " r_frac " +
              std::to_string(frac));
      EXPECT_EQ(v.keep[k], 1) << "k=" << k << " r_frac " << frac;
    }
  }
}

TEST(SkylineSimdTest, DispatchRespectsEnvironmentOverride) {
  const char* env = std::getenv("MLDCS_SIMD");
  const bool forced_off =
      env != nullptr && (std::strcmp(env, "off") == 0 ||
                         std::strcmp(env, "scalar") == 0);
  if (forced_off) {
    // The .simd_off registration: the override must win over the CPU.
    EXPECT_STREQ(simd::dispatch_choice(), "scalar");
    EXPECT_EQ(&simd::active_kernels(), &simd::scalar_kernels());
  } else if (simd::simd_compiled() &&
             std::strcmp(simd::detected_isa(), "none") != 0) {
    // Wide kernels compiled in and supported: dispatch must take them.
    EXPECT_STREQ(simd::dispatch_choice(), simd::detected_isa());
  } else {
    EXPECT_STREQ(simd::dispatch_choice(), "scalar");
  }
}

}  // namespace
}  // namespace mldcs::core
