/// mldcs_cli — command-line front end to the library.
///
/// Subcommands:
///   mldcs_cli cover <deployment-file> [relay-index]
///       Load a node file (see src/net/io.hpp format), treat the given node
///       (default 0) as the relay, and print its MLDCS, skyline arcs, and
///       exact covered area/perimeter.
///   mldcs_cli forward <deployment-file> <relay-index> <scheme>
///       Build the full disk graph and print the forwarding set of the
///       relay under the scheme (flooding|skyline|sel|greedy|optimal).
///   mldcs_cli gen <avg-degree> <hetero 0|1> <seed>
///       Generate a Chapter 5 deployment and dump it in the file format
///       (pipe to a file to get a reproducible test case).
///
/// Exit code 0 on success, 1 on bad usage, 2 on invalid input data: a
/// malformed number (printed with the usage) or deployment file.

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "broadcast/forwarding.hpp"
#include "core/mldcs.hpp"
#include "geometry/angle.hpp"
#include "net/io.hpp"
#include "net/topology.hpp"
#include "obs/run_outputs.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mldcs;

int usage(int code = 1) {
  std::cerr << "usage:\n"
            << "  mldcs_cli cover <file> [relay-index]\n"
            << "  mldcs_cli forward <file> <relay-index> "
               "<flooding|skyline|sel|greedy|optimal>\n"
            << "  mldcs_cli gen <avg-degree> <hetero 0|1> <seed>\n";
  return code;
}

int cmd_cover(const std::string& path, net::NodeId relay) {
  const auto nodes = net::load_deployment(path);
  if (relay >= nodes.size()) {
    std::cerr << "relay index " << relay << " out of range (file has "
              << nodes.size() << " nodes)\n";
    return 2;
  }
  // The relay's local disk set: its own disk + its bidirectional neighbors'.
  std::vector<geom::Disk> disks{nodes[relay].disk()};
  std::vector<net::NodeId> ids{relay};
  for (const net::Node& n : nodes) {
    if (n.id != relay && nodes[relay].linked_to(n)) {
      disks.push_back(n.disk());
      ids.push_back(n.id);
    }
  }
  const core::LocalDiskSet set(nodes[relay].pos, disks);
  const core::Skyline sky = core::skyline_of(set);

  std::cout << "relay: node " << relay << " at " << nodes[relay].pos
            << " r=" << nodes[relay].radius << '\n'
            << "1-hop neighbors: " << disks.size() - 1 << '\n';
  std::cout << "MLDCS nodes:";
  for (std::size_t i : sky.skyline_set()) {
    if (i != 0) std::cout << ' ' << ids[i];
  }
  std::cout << "\nskyline arcs:\n";
  for (const core::Arc& a : sky.arcs()) {
    std::cout << "  [" << geom::rad2deg(a.start) << ", "
              << geom::rad2deg(a.end) << "] deg  node " << ids[a.disk] << '\n';
  }
  std::cout << "covered area: " << sky.enclosed_area(set.disks())
            << "  perimeter: " << sky.perimeter(set.disks()) << '\n';
  return 0;
}

bcast::Scheme parse_scheme(const std::string& s, bool& ok) {
  ok = true;
  if (s == "flooding") return bcast::Scheme::kFlooding;
  if (s == "skyline") return bcast::Scheme::kSkyline;
  if (s == "sel") return bcast::Scheme::kSelectingForwardingSet;
  if (s == "greedy") return bcast::Scheme::kGreedy;
  if (s == "optimal") return bcast::Scheme::kOptimal;
  ok = false;
  return bcast::Scheme::kFlooding;
}

int cmd_forward(const std::string& path, net::NodeId relay,
                const std::string& scheme_str) {
  bool ok = false;
  const bcast::Scheme scheme = parse_scheme(scheme_str, ok);
  if (!ok) {
    std::cerr << "unknown scheme '" << scheme_str << "'\n";
    return 1;
  }
  const auto g = net::DiskGraph::build(net::load_deployment(path));
  if (relay >= g.size()) {
    std::cerr << "relay index out of range\n";
    return 2;
  }
  const auto fwd = bcast::forwarding_set(g, relay, scheme);
  std::cout << bcast::scheme_name(scheme) << " forwarding set of node "
            << relay << " (" << fwd.size() << " nodes):";
  for (net::NodeId v : fwd) std::cout << ' ' << v;
  std::cout << '\n';
  return 0;
}

int cmd_gen(double degree, bool hetero, std::uint64_t seed) {
  net::DeploymentParams p;
  p.model = hetero ? net::RadiusModel::kUniform : net::RadiusModel::kHomogeneous;
  p.target_avg_degree = degree;
  sim::Xoshiro256 rng(seed);
  const auto nodes = net::generate_deployment(p, rng);
  net::write_deployment(std::cout, nodes,
                        "generated: degree=" + std::to_string(degree) +
                            " hetero=" + std::to_string(hetero) +
                            " seed=" + std::to_string(seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "cover" && (argc == 3 || argc == 4)) {
      std::optional<std::uint64_t> relay = 0;
      if (argc == 4) relay = obs::parse_decimal(argv[3], net::kNoNode - 1);
      if (!relay) return usage(2);
      return cmd_cover(argv[2], static_cast<net::NodeId>(*relay));
    }
    if (cmd == "forward" && argc == 5) {
      const auto relay = obs::parse_decimal(argv[3], net::kNoNode - 1);
      if (!relay) return usage(2);
      return cmd_forward(argv[2], static_cast<net::NodeId>(*relay), argv[4]);
    }
    if (cmd == "gen" && argc == 5) {
      const auto degree = obs::parse_positive_real(argv[2]);
      const auto hetero = obs::parse_decimal(argv[3], 1);
      const auto seed = obs::parse_decimal(argv[4], UINT64_MAX);
      if (!degree || !hetero || !seed) return usage(2);
      return cmd_gen(*degree, *hetero == 1, *seed);
    }
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << '\n';
    return 2;
  }
  return usage();
}
