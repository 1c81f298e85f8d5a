/// Skyline visualizer: renders a local disk set and its computed skyline to
/// an SVG file — the disks in grey, the skyline arcs color-coded by
/// contributing disk, the relay at the center.  Handy for eyeballing
/// Figures 3.2 / 4.1-style configurations.
///
/// Usage: skyline_svg [out.svg] [n_disks] [seed]
///        skyline_svg fig41 [out.svg] [k]     — render the Figure 4.1 config
///
/// Counts (n_disks, k) must be >= 1; a malformed number exits 2.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/angle.hpp"
#include "geometry/bbox.hpp"
#include "geometry/radial.hpp"
#include "obs/run_outputs.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mldcs;

const char* kPalette[] = {"#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
                          "#ff7f00", "#a65628", "#f781bf", "#17becf"};

void write_svg(const std::string& path, const core::Scenario& sc) {
  core::SkylineWorkspace ws;
  const auto sky = core::compute_skyline(sc.disks, sc.origin, ws);
  geom::BBox box = geom::bbox_of(std::span<const geom::Disk>(sc.disks));
  box = box.inflated(0.25);

  const double scale = 640.0 / std::max(box.width(), box.height());
  const auto X = [&](double x) { return (x - box.min.x) * scale; };
  const auto Y = [&](double y) { return (box.max.y - y) * scale; };

  std::ofstream svg(path);
  svg << "<svg xmlns='http://www.w3.org/2000/svg' width='"
      << box.width() * scale << "' height='" << box.height() * scale
      << "'>\n<rect width='100%' height='100%' fill='white'/>\n";

  // Disks (faint) and centers.
  for (std::size_t i = 0; i < sc.disks.size(); ++i) {
    const geom::Disk& d = sc.disks[i];
    svg << "<circle cx='" << X(d.center.x) << "' cy='" << Y(d.center.y)
        << "' r='" << d.radius * scale
        << "' fill='#dddddd' fill-opacity='0.35' stroke='#999999' "
           "stroke-width='1'/>\n";
    svg << "<circle cx='" << X(d.center.x) << "' cy='" << Y(d.center.y)
        << "' r='3' fill='#444444'/>\n"
        << "<text x='" << X(d.center.x) + 5 << "' y='" << Y(d.center.y) - 5
        << "' font-size='12'>u" << i << "</text>\n";
  }

  // Skyline arcs, color-coded by disk; drawn as dense polylines along the
  // radial function (robust for any arc geometry).
  for (const core::Arc& a : sky.arcs()) {
    const geom::RadialDisk rd(sc.disks[a.disk], sc.origin);
    svg << "<polyline fill='none' stroke='"
        << kPalette[a.disk % (sizeof(kPalette) / sizeof(kPalette[0]))]
        << "' stroke-width='3' points='";
    const int steps = std::max(8, static_cast<int>(a.span() * 64));
    for (int s = 0; s <= steps; ++s) {
      const double theta = a.start + a.span() * s / steps;
      const geom::Vec2 pt = rd.boundary_point_at(theta);
      svg << X(pt.x) << ',' << Y(pt.y) << ' ';
    }
    svg << "'/>\n";
  }

  // The relay.
  svg << "<circle cx='" << X(sc.origin.x) << "' cy='" << Y(sc.origin.y)
      << "' r='5' fill='black'/>\n"
      << "<text x='" << X(sc.origin.x) + 7 << "' y='" << Y(sc.origin.y) + 4
      << "' font-size='14' font-weight='bold'>o</text>\n</svg>\n";

  std::cout << "wrote " << path << ": " << sc.disks.size() << " disks, "
            << sky.arc_count() << " skyline arcs, skyline set {";
  for (std::size_t i : sky.skyline_set()) std::cout << ' ' << i;
  std::cout << " }\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [] {
    std::cerr << "usage: skyline_svg [out.svg] [n_disks] [seed]\n"
                 "       skyline_svg fig41 [out.svg] [k]\n";
    return 2;
  };
  if (argc > 1 && std::string(argv[1]) == "fig41") {
    const std::string out = argc > 2 ? argv[2] : "fig41.svg";
    std::optional<std::uint64_t> k = 6;
    if (argc > 3) k = obs::parse_decimal(argv[3], UINT32_MAX);
    if (argc > 4 || !k || *k == 0) return usage();
    write_svg(out, core::figure41_configuration(*k));
    return 0;
  }
  const std::string out = argc > 1 ? argv[1] : "skyline.svg";
  std::optional<std::uint64_t> n = 9;
  std::optional<std::uint64_t> seed = 4;
  if (argc > 2) n = obs::parse_decimal(argv[2], UINT32_MAX);
  if (argc > 3) seed = obs::parse_decimal(argv[3], UINT64_MAX);
  if (argc > 4 || !n || *n == 0 || !seed) return usage();
  sim::Xoshiro256 rng(*seed);
  write_svg(out, core::random_local_set(rng, *n, true));
  return 0;
}
