/// Figure 4.1 — the construction showing why Lemma 8's "each disk adds at
/// most 2 arcs" needs decreasing-radius insertion order: k unit disks on a
/// ring of radius 1/2 around o, plus a central disk B(o, r) with
/// ||o-p|| < r < 3/2, where p is the outer intersection of adjacent unit
/// circles.  Added last (smallest radius), the central disk contributes
/// exactly k arcs — yet the total skyline still respects the 2n bound.

#include <iostream>

#include "../bench/common.hpp"
#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "core/validate.hpp"

int main() {
  using namespace mldcs;
  bench::banner("Figure 4.1",
                "a disk added last can contribute k arcs (Lemma 8 needs "
                "decreasing-radius order)");

  sim::Table table({"k", "central_disk_arcs", "total_arcs", "2n_bound",
                    "radial_err", "valid"});
  bool ok = true;
  core::SkylineWorkspace ws;
  for (std::size_t k : {3u, 4u, 5u, 6u, 8u, 10u, 12u, 16u}) {
    const core::Scenario sc = core::figure41_configuration(k);
    const auto sky = core::compute_skyline(sc.disks, sc.origin, ws);

    std::size_t central = 0;
    for (const auto& [disk, arcs] : sky.arcs_per_disk()) {
      if (disk == k) central = arcs;
    }
    const double err = core::max_radial_error(sky, sc.disks, 4096);
    const bool valid = core::verify_skyline(sky, sc.disks).empty() &&
                       central == k &&
                       sky.arc_count() <= 2 * sc.disks.size();
    ok = ok && valid;
    table.add_row({std::to_string(k), std::to_string(central),
                   std::to_string(sky.arc_count()),
                   std::to_string(2 * sc.disks.size()),
                   sim::format_double(err, 10),
                   valid ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << '\n';
  table.print_csv(std::cout);

  // Radius sweep at k = 6: below ||o-p|| the central disk vanishes from the
  // skyline; inside the window it contributes k arcs.
  std::cout << "\nradius sweep at k = 6 (r_frac in [-0.2, 1.1] of the "
               "(||o-p||, 3/2) window):\n";
  sim::Table sweep({"r_frac", "central_arcs"});
  for (double f : {-0.2, -0.05, 0.05, 0.25, 0.5, 0.75, 0.95}) {
    const core::Scenario sc = core::figure41_configuration(6, f);
    const auto sky = core::compute_skyline(sc.disks, sc.origin, ws);
    std::size_t central = 0;
    for (const auto& [disk, arcs] : sky.arcs_per_disk()) {
      if (disk == 6) central = arcs;
    }
    sweep.add_row({sim::format_double(f, 2), std::to_string(central)});
  }
  sweep.print(std::cout);

  std::cout << (ok ? "\n[OK] Figure 4.1 construction reproduced for all k\n"
                   : "\n[WARN] construction failed for some k\n");
  return ok ? 0 : 1;
}
