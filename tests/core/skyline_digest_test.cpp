// The engine's output bits, pinned.  Every skyline of a fixed corpus is
// hashed — each arc's start bits, end bits and disk, and for relays of a
// deployment the forwarding set too — and the hash must equal a constant
// recorded before the merge level was last reworked.  A change to the
// engine that moves any breakpoint by one ulp, or picks a different disk
// on a tie, changes the hash.
//
// Corpus (a few hundred sets):
//   * every 12th relay of seeded paper deployments (radii U[1,2]) at
//     target degrees 20, 36.8 and 50, through relay_forwarding_set;
//   * narrow-band sets, where nearly every disk owns an arc;
//   * skyline_simd_test's degenerate shapes: coincident centres and exact
//     duplicates, sub-kAngleTol breakpoint clusters, tangent pairs, plus
//     the Figure 4.1 construction and a collinear chain, some of them off
//     the origin.
//
// tests/CMakeLists.txt registers this binary twice: as-is and with
// MLDCS_SIMD=off, so the constants hold on the wide and the scalar
// kernels alike.  Under MLDCS_ENABLE_INVARIANT_CHECKS every set of at most
// kDeepCheckMaxDisks disks also runs the Theorem 3 oracle on its way out
// of the engine.
//
// The constants are compared on x86-64 only.  The engine's kernels are
// bit-identical everywhere, but the deferred-span atan2 comes from libm,
// and GCC on other targets may contract FMAs in the scalar code outside
// the kernel translation units.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "broadcast/relay_skyline.hpp"
#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/angle.hpp"
#include "geometry/disk.hpp"
#include "geometry/tolerance.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

/// FNV-1a over the bytes of 64-bit words.
class Digest {
 public:
  void add(std::uint64_t w) noexcept {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (w >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }

  void add_arcs(const std::vector<Arc>& arcs) noexcept {
    add(arcs.size());
    for (const Arc& a : arcs) {
      add(std::bit_cast<std::uint64_t>(a.start));
      add(std::bit_cast<std::uint64_t>(a.end));
      add(a.disk);
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Compare on x86-64; elsewhere say why not.
void expect_digest(std::uint64_t got, std::uint64_t want,
                   std::size_t sets) {
#if defined(__x86_64__)
  EXPECT_EQ(got, want) << "arc digest over " << sets
                       << " sets changed: some breakpoint or winner moved";
#else
  GTEST_SKIP() << "digest constants are x86-64 values (libm atan2, FMA "
                  "contraction outside the kernels); got 0x"
               << std::hex << got << " over " << std::dec << sets << " sets";
#endif
}

/// `sc` moved by (dx, dy), so the relay sits off the origin.
Scenario shifted(const Scenario& sc, double dx, double dy) {
  Scenario out{{sc.origin.x + dx, sc.origin.y + dy}, {}};
  for (const geom::Disk& d : sc.disks) {
    out.disks.push_back({{d.center.x + dx, d.center.y + dy}, d.radius});
  }
  return out;
}

TEST(SkylineDigestTest, PaperDeployments) {
  Digest digest;
  std::size_t sets = 0;
  bcast::detail::RelayScratch scratch;
  const double degrees[] = {20.0, 36.8, 50.0};
  for (std::size_t k = 0; k < 3; ++k) {
    net::DeploymentParams p;
    p.model = net::RadiusModel::kUniform;
    p.target_avg_degree = degrees[k];
    sim::Xoshiro256 rng(0xD16E57ULL + k);
    const net::DiskGraph g = net::generate_graph(p, rng);
    for (net::NodeId u = 0; u < g.size(); u += 12) {
      const std::uint32_t n_arcs =
          bcast::detail::relay_forwarding_set(g, u, scratch);
      ASSERT_EQ(n_arcs, scratch.arcs.size());
      digest.add_arcs(scratch.arcs);
      digest.add(scratch.relay_ids.size());
      for (const net::NodeId v : scratch.relay_ids) digest.add(v);
      ++sets;
    }
  }
  expect_digest(digest.value(), 0xe1a17a70e7afaf6dULL, sets);
}

TEST(SkylineDigestTest, NarrowBand) {
  Digest digest;
  std::size_t sets = 0;
  SkylineWorkspace ws;
  std::vector<Arc> arcs;
  sim::Xoshiro256 rng(0xBA4DULL);
  for (const std::size_t n : {2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}) {
    for (int rep = 0; rep < 2; ++rep) {
      const Scenario sc = narrow_band_set(rng, n);
      compute_skyline_arcs(sc.disks, sc.origin, ws, arcs);
      digest.add_arcs(arcs);
      ++sets;
    }
  }
  expect_digest(digest.value(), 0xcb2d416cf18c42e1ULL, sets);
}

TEST(SkylineDigestTest, DegenerateShapes) {
  std::vector<Scenario> corpus;
  sim::Xoshiro256 rng(0xDE6E4ULL);
  for (int rep = 0; rep < 16; ++rep) {
    // Coincident centres at a member's centre, and an exact duplicate
    // (every stacked radius keeps the relay inside).
    Scenario sc = narrow_band_set(rng, 12);
    const geom::Disk base = sc.disks[1 + static_cast<std::size_t>(rep % 10)];
    const geom::Vec2 c = base.center;
    const double d = std::sqrt(c.x * c.x + c.y * c.y);
    sc.disks.push_back({c, d + (base.radius - d) * 0.25});
    sc.disks.push_back({c, base.radius * 0.999});
    sc.disks.push_back({c, base.radius});
    sc.disks.push_back(sc.disks[3]);
    corpus.push_back(sc);
  }
  for (int rep = 0; rep < 16; ++rep) {
    // Copies rotated about the relay by a fraction of kAngleTol: every
    // breakpoint reappears within tolerance.
    Scenario sc = narrow_band_set(rng, 10);
    const double eps = geom::kAngleTol * (rep % 2 == 0 ? 0.5 : 0.05);
    const double cs = std::cos(eps);
    const double sn = std::sin(eps);
    for (std::size_t i = 1; i <= 3; ++i) {
      const geom::Vec2 p = sc.disks[i].center;
      sc.disks.push_back(
          {{cs * p.x - sn * p.y, sn * p.x + cs * p.y}, sc.disks[i].radius});
    }
    corpus.push_back(sc);
  }
  for (int rep = 0; rep < 16; ++rep) {
    // Internal tangencies from either side and a strict containment.
    Scenario sc = narrow_band_set(rng, 8);
    sc.disks.push_back({{0.3, 0.0}, 1.31});
    sc.disks.push_back({{0.5, 0.0}, 0.51});
    sc.disks.push_back({{0.1, 0.1}, 0.25});
    corpus.push_back(sc);
  }
  for (const std::size_t k : {3, 5, 8, 16}) {
    corpus.push_back(figure41_configuration(k));
  }
  corpus.push_back(figure41_configuration(8, 0.05));
  corpus.push_back(figure41_configuration(8, 0.95));
  for (const std::size_t n : {2, 7, 64, 256}) {
    corpus.push_back(collinear_set(n));
  }
  corpus.push_back(tangent_pair());
  corpus.push_back(duplicate_set(9));
  corpus.push_back(concentric_set(6));
  corpus.push_back(dominated_set(rng, 20));
  corpus.push_back(figure32_like_configuration());
  const std::size_t unshifted = corpus.size();
  for (std::size_t i = 0; i < unshifted; i += 5) {
    corpus.push_back(shifted(corpus[i], 3.25, -1.5));
  }

  Digest digest;
  SkylineWorkspace ws;
  std::vector<Arc> arcs;
  for (const Scenario& sc : corpus) {
    compute_skyline_arcs(sc.disks, sc.origin, ws, arcs);
    digest.add_arcs(arcs);
  }
  expect_digest(digest.value(), 0xdf16c9c113ebbc64ULL, corpus.size());
}

}  // namespace
}  // namespace mldcs::core
