/// Ablation — area coverage of the forwarding sets.
///
/// The MLDCS/skyline forwarding set is defined by AREA equality: together
/// with the relay it covers exactly what all 1-hop disks cover, so any node
/// *anywhere* in that area (even one the relay has never heard of) still
/// receives the rebroadcast.  The 2-hop schemes only promise to reach the
/// currently-known 2-hop NODES; the area they cover is strictly smaller.
/// This ablation measures covered area per scheme (exact, via the skyline
/// sector integral) and the practical consequence: how often a newly
/// arrived node inside the 1-hop coverage area would miss a rebroadcast.

#include <iostream>

#include "../bench/common.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/area.hpp"
#include "geometry/bbox.hpp"
#include "geometry/radial.hpp"

namespace {

using namespace mldcs;

/// Exact union area of {relay disk} + the chosen neighbors' disks.
double covered_area(const net::DiskGraph& g, const bcast::LocalView& view,
                    const std::vector<net::NodeId>& fwd,
                    core::SkylineWorkspace& ws) {
  std::vector<geom::Disk> disks{g.node(view.self).disk()};
  for (net::NodeId v : fwd) disks.push_back(g.node(v).disk());
  const auto sky = core::compute_skyline(disks, g.node(view.self).pos, ws);
  return sky.enclosed_area(disks);
}

}  // namespace

int main() {
  bench::banner("Ablation: area coverage",
                "fraction of the 1-hop coverage area served by each scheme's "
                "forwarding set");

  const std::vector<bcast::Scheme> schemes{
      bcast::Scheme::kFlooding, bcast::Scheme::kSkyline,
      bcast::Scheme::kGreedy, bcast::Scheme::kOptimal};

  sim::Table table({"avg_1hop", "flooding_pct", "skyline_pct", "greedy_pct",
                    "optimal_pct", "new_node_miss_rate_greedy_pct"});
  bool skyline_exact = true;
  core::SkylineWorkspace ws;

  for (int n = 6; n <= 18; n += 6) {
    std::vector<sim::RunningStats> frac(schemes.size());
    sim::RunningStats miss_rate;
    const std::size_t trials = 80;
    for (std::size_t t = 0; t < trials; ++t) {
      net::DeploymentParams p;
      p.model = net::RadiusModel::kUniform;
      p.target_avg_degree = n;
      sim::Xoshiro256 rng(sim::derive_seed(
          bench::kMasterSeed, 770000 + static_cast<std::uint64_t>(n) * 1000 + t));
      const auto g = net::generate_graph(p, rng);
      const bcast::LocalView view = bcast::local_view(g, 0);
      if (view.one_hop.empty()) continue;

      const double full = covered_area(g, view, view.one_hop, ws);
      std::vector<std::vector<net::NodeId>> sets(schemes.size());
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        sets[s] = bcast::forwarding_set(g, view, schemes[s]);
        frac[s].add(100.0 * covered_area(g, view, sets[s], ws) / full);
      }

      // "New node" probe: drop 200 uniform points inside the 1-hop coverage
      // area (sampled within the union via rejection on the skyline) and
      // ask whether the greedy set's coverage reaches them.
      std::vector<geom::Disk> all{g.node(0).disk()};
      for (net::NodeId v : view.one_hop) all.push_back(g.node(v).disk());
      std::vector<geom::Disk> greedy_disks{g.node(0).disk()};
      const std::size_t greedy_index = 2;
      for (net::NodeId v : sets[greedy_index]) {
        greedy_disks.push_back(g.node(v).disk());
      }
      std::size_t probes = 0, missed = 0;
      const geom::BBox box = geom::bbox_of(std::span<const geom::Disk>(all));
      while (probes < 200) {
        const geom::Vec2 q{rng.uniform(box.min.x, box.max.x),
                           rng.uniform(box.min.y, box.max.y)};
        if (!geom::covered_by_union(all, q, 0.0)) continue;
        ++probes;
        if (!geom::covered_by_union(greedy_disks, q, 0.0)) ++missed;
      }
      miss_rate.add(100.0 * static_cast<double>(missed) /
                    static_cast<double>(probes));
    }
    skyline_exact = skyline_exact && frac[1].mean() > 99.999;
    table.add_numeric_row({static_cast<double>(n), frac[0].mean(),
                           frac[1].mean(), frac[2].mean(), frac[3].mean(),
                           miss_rate.mean()});
  }

  table.print(std::cout);
  std::cout << '\n';
  table.print_csv(std::cout);

  std::cout << "\nreading: skyline covers 100.000% of the 1-hop area by "
               "construction (Theorem 3); the node-cover schemes leave area "
               "uncovered, which is exactly where a newly arrived or silent "
               "node misses the rebroadcast.\n";
  std::cout << (skyline_exact
                    ? "[OK] skyline area coverage is exact at every density\n"
                    : "[WARN] skyline area coverage below 100%\n");
  return skyline_exact ? 0 : 1;
}
