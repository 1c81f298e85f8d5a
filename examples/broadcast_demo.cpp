/// Broadcast demo: deploy a heterogeneous ad hoc network, broadcast from
/// the center under each forwarding scheme, and compare the broadcast-storm
/// metrics (transmissions, delivery, latency).
///
/// Usage: broadcast_demo [avg_degree] [seed] [hetero(0|1)] [--events PATH]
///
/// --events arms the flight recorder (obs/event_log.hpp) across every
/// simulated broadcast, writes the mldcs-events-v1 JSONL to PATH, and
/// appends a "why" section derived purely from the events: which
/// transmitters burned the redundant-airtime budget, and — for any scheme
/// that failed full delivery — a per-node account of why each missed node
/// never got the message (obs/event_replay.hpp).

#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "broadcast/broadcast_sim.hpp"
#include "broadcast/coverage_gap.hpp"
#include "net/topology.hpp"
#include "obs/event_log.hpp"
#include "obs/event_replay.hpp"
#include "obs/run_outputs.hpp"
#include "sim/rng.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mldcs;

  const auto usage = [] {
    std::cerr << "usage: broadcast_demo [avg_degree] [seed] [hetero(0|1)] "
                 "[--events PATH]\n";
    return 2;
  };
  std::string events_path;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--events" && i + 1 < argc) {
      events_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      pos.push_back(arg);
    }
  }
  // Strict positionals: a finite degree > 0, any 64-bit seed, hetero 0 or 1.
  std::optional<double> degree_arg = 10.0;
  std::optional<std::uint64_t> seed_arg = 7;
  std::optional<std::uint64_t> hetero_arg = 1;
  if (pos.size() > 0) degree_arg = obs::parse_positive_real(pos[0]);
  if (pos.size() > 1) seed_arg = obs::parse_decimal(pos[1], UINT64_MAX);
  if (pos.size() > 2) hetero_arg = obs::parse_decimal(pos[2], 1);
  if (pos.size() > 3 || !degree_arg || !seed_arg || !hetero_arg) {
    return usage();
  }
  const double degree = *degree_arg;
  const std::uint64_t seed = *seed_arg;
  const bool hetero = *hetero_arg == 1;

  net::DeploymentParams p;
  p.model = hetero ? net::RadiusModel::kUniform : net::RadiusModel::kHomogeneous;
  p.target_avg_degree = degree;
  sim::Xoshiro256 rng(seed);
  const net::DiskGraph g = net::generate_graph(p, rng);

  std::cout << "deployment: " << g.size() << " nodes over " << p.side << " x "
            << p.side << (hetero ? ", radii U[1,2]" : ", radius 1") << '\n'
            << "edges: " << g.edge_count()
            << ", average degree: " << g.average_degree()
            << ", connected: " << (g.connected() ? "yes" : "no") << "\n\n";

  const bcast::LocalView view = bcast::local_view(g, 0);
  std::cout << "source (center) has " << view.one_hop.size()
            << " 1-hop and " << view.two_hop.size() << " 2-hop neighbors\n\n";

  sim::Table table({"scheme", "fwd_set_of_source", "transmissions",
                    "delivered", "reachable", "max_hops", "full_delivery"});
  std::vector<bcast::Scheme> schemes{bcast::Scheme::kFlooding,
                                     bcast::Scheme::kSkyline,
                                     bcast::Scheme::kGreedy,
                                     bcast::Scheme::kOptimal};
  if (!hetero) {
    schemes.insert(schemes.begin() + 2, bcast::Scheme::kSelectingForwardingSet);
  }

  if (!events_path.empty()) obs::events_start();
  for (const bcast::Scheme s : schemes) {
    const auto fwd = bcast::forwarding_set(g, view, s);
    const auto r = bcast::simulate_broadcast(g, 0, s);
    table.add_row({std::string(bcast::scheme_name(s)),
                   std::to_string(fwd.size()), std::to_string(r.transmissions),
                   std::to_string(r.delivered), std::to_string(r.reachable),
                   std::to_string(r.max_hops),
                   r.full_delivery() ? "yes" : "NO"});
  }
  if (!events_path.empty()) obs::events_stop();
  table.print(std::cout);

  if (!events_path.empty()) {
    const auto replays = obs::replay_broadcasts(obs::events_snapshot());
    if (obs::events_dropped() > 0) {
      std::cout << "\n(" << obs::events_dropped()
                << " events dropped at the flight recorder's capacity, so "
                   "the replays below may be incomplete)\n";
    } else if (replays.size() != schemes.size()) {
      std::cerr << "error: " << replays.size() << " broadcast replays for "
                << schemes.size() << " schemes\n";
      return 1;
    }
    // One replay per scheme, in simulation order: ask each "why" question
    // the storm analysis cares about straight from the event stream.
    for (std::size_t i = 0; i < replays.size() && i < schemes.size(); ++i) {
      const obs::ReplayedBroadcast& r = replays[i];
      std::cout << "\nwhy [" << bcast::scheme_name(schemes[i]) << "]:\n";

      const auto by_tx = obs::redundancy_by_transmitter(r);
      std::cout << "  redundant receptions: " << r.redundant_receptions;
      if (!by_tx.empty()) {
        std::cout << "; top transmitters:";
        for (std::size_t k = 0; k < by_tx.size() && k < 3; ++k) {
          std::cout << " node " << by_tx[k].first << " (" << by_tx[k].second
                    << ")";
        }
      }
      std::cout << '\n';

      std::size_t explained = 0;
      for (net::NodeId v = 0; v < g.size() && explained < 3; ++v) {
        if (r.fate(v).received) continue;
        const auto nb = g.neighbors(v);
        std::cout << "  "
                  << obs::explain_missed(r, v, {nb.data(), nb.size()})
                  << '\n';
        ++explained;
      }
      if (explained == 0 && r.delivered == r.reachable) {
        std::cout << "  full delivery: no node left to explain\n";
      }
    }

    std::ofstream events_out(events_path);
    if (!events_out) {
      std::cerr << "error: cannot open " << events_path << " for writing\n";
      return 1;
    }
    obs::write_events_jsonl(events_out);
    std::cout << "\nwrote event log to " << events_path
              << " (validate/report with tools/mldcs_report.py)\n";
  }

  if (hetero) {
    const auto gap = bcast::skyline_coverage_gap(g, 0);
    std::cout << "\nskyline 2-hop coverage gap at the source: "
              << (gap.exists() ? "YES (Figure 5.6 case)" : "no");
    if (gap.exists()) {
      std::cout << " — missed 2-hop neighbors:";
      for (auto w : gap.uncovered) std::cout << ' ' << w;
    }
    std::cout << '\n';
  }
  return 0;
}
