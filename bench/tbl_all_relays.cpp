/// Extension table — forwarding-set statistics over ALL relays, not just
/// the center source.
///
/// Chapter 5 measures only the source node at the center of the square;
/// relays near the boundary see asymmetric neighborhoods and lower degrees.
/// This bench computes, for every node of each deployment, its skyline /
/// greedy forwarding set, and reports the center-vs-boundary split — a
/// robustness check that the paper's center-only numbers generalize.
///
/// The skyline column and the arc-count instrumentation come from the
/// batched compute_all_skylines API (one workspace per worker, whole
/// deployment per call, on sim::default_pool(), so MLDCS_THREADS sizes
/// it); greedy still goes through per-relay LocalViews, since it genuinely
/// needs the 2-hop neighborhood.

#include <iostream>

#include "../bench/common.hpp"
#include "broadcast/all_skylines.hpp"

int main() {
  using namespace mldcs;
  bench::banner("Table: all relays",
                "per-relay forwarding sets across the whole deployment");

  sim::Table table({"avg_1hop", "model", "region", "relays", "degree",
                    "skyline", "greedy", "sky_arcs_max"});
  sim::ThreadPool& pool = sim::default_pool();

  for (const bool hetero : {false, true}) {
    for (const int n : {8, 16}) {
      sim::RunningStats deg_in, sky_in, greedy_in;
      sim::RunningStats deg_out, sky_out, greedy_out;
      std::size_t relays_in = 0, relays_out = 0;
      std::size_t max_arcs = 0;
      const std::size_t trials = 12;
      for (std::size_t t = 0; t < trials; ++t) {
        net::DeploymentParams p;
        p.model = hetero ? net::RadiusModel::kUniform
                         : net::RadiusModel::kHomogeneous;
        p.target_avg_degree = n;
        sim::Xoshiro256 rng(sim::derive_seed(
            bench::kMasterSeed,
            440000 + static_cast<std::uint64_t>(n) * 100 + (hetero ? 50u : 0u) +
                t));
        const auto g = net::generate_graph(p, rng);
        // Every relay's skyline forwarding set + arc counts in one batched
        // call; track the worst skyline arc complexity seen anywhere.
        const bcast::AllSkylines all = bcast::compute_all_skylines(g, pool);
        max_arcs = std::max(max_arcs, all.max_arc_count());
        // "Interior" = farther than 2 units (the max radius) from any edge
        // of the square, so the full disk fits inside the deployment.
        const double margin = 2.0;
        for (net::NodeId u = 0; u < g.size(); ++u) {
          const auto& pos = g.node(u).pos;
          const bool interior = pos.x > margin && pos.x < p.side - margin &&
                                pos.y > margin && pos.y < p.side - margin;
          const bcast::LocalView view = bcast::local_view(g, u);
          const auto sky = all.forwarding_set(u);
          const auto greedy = bcast::greedy_forwarding_set(g, view);
          if (interior) {
            ++relays_in;
            deg_in.add(static_cast<double>(view.one_hop.size()));
            sky_in.add(static_cast<double>(sky.size()));
            greedy_in.add(static_cast<double>(greedy.size()));
          } else {
            ++relays_out;
            deg_out.add(static_cast<double>(view.one_hop.size()));
            sky_out.add(static_cast<double>(sky.size()));
            greedy_out.add(static_cast<double>(greedy.size()));
          }
        }
      }
      const std::string model = hetero ? "hetero" : "homo";
      table.add_row({std::to_string(n), model, "interior",
                     std::to_string(relays_in),
                     sim::format_double(deg_in.mean(), 2),
                     sim::format_double(sky_in.mean(), 2),
                     sim::format_double(greedy_in.mean(), 2),
                     std::to_string(max_arcs)});
      table.add_row({std::to_string(n), model, "boundary",
                     std::to_string(relays_out),
                     sim::format_double(deg_out.mean(), 2),
                     sim::format_double(sky_out.mean(), 2),
                     sim::format_double(greedy_out.mean(), 2), ""});
    }
  }

  table.print(std::cout);
  std::cout << '\n';
  table.print_csv(std::cout);
  std::cout << "\nreading: boundary relays have fewer neighbors and smaller "
               "forwarding sets, but the skyline-vs-greedy relationship "
               "matches the center-node figures; the paper's center-only "
               "measurement generalizes.  sky_arcs_max is the largest arc "
               "count observed in any relay's skyline (Lemma 8 bound: 2n).\n";
  std::cout << "[OK] all-relay sweep completed\n";
  return 0;
}
