/// \file calinescu.cpp
/// The selecting-forwarding-set heuristic of Călinescu, Măndoiu, Wan and
/// Zelikovsky (MONET 9(2), 2004) as described in Section 2.2 of the paper:
/// homogeneous networks only.
///
/// Per quadrant around the relay: (1) compute the skyline disks of the
/// 1-hop neighborhood and order them counter-clockwise; (2) each 2-hop
/// neighbor in the quadrant is covered by a set of skyline disks; (3) a
/// simple greedy sweep picks disks until all 2-hop neighbors in the
/// quadrant are covered.  Restricting candidates to *skyline* disks is safe
/// because the skyline set is a disk cover set: any 2-hop neighbor inside
/// some 1-hop disk is inside a skyline disk, and in a homogeneous network
/// being inside a neighbor's disk is the same as being linked to it.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "broadcast/forwarding.hpp"
#include "geometry/angle.hpp"
#include "geometry/tolerance.hpp"

namespace mldcs::bcast {

std::vector<net::NodeId> calinescu_forwarding_set(const net::DiskGraph& g,
                                                  const LocalView& view) {
  // Homogeneity check over the nodes this computation touches.
  const double r0 = g.node(view.self).radius;
  for (net::NodeId v : view.one_hop) {
    if (!geom::approx_equal(g.node(v).radius, r0)) {
      throw std::invalid_argument(
          "selecting-forwarding-set requires a homogeneous network "
          "(node radii differ)");
    }
  }
  if (view.two_hop.empty()) return {};

  const geom::Vec2 origin = g.node(view.self).pos;

  // Candidate relays: the skyline disks of the 1-hop neighborhood (the
  // skyline forwarding set, sorted by node id).
  const std::vector<net::NodeId> sky_nodes = skyline_forwarding_set(g, view);
  // Non-skyline 1-hop neighbors may still be the *only* graph-link to some
  // 2-hop node in degenerate tie cases; keep all 1-hop neighbors as backup
  // candidates after the skyline ones so the result always dominates the
  // 2-hop set (matching the guarantee of [6]).
  std::vector<net::NodeId> candidates = sky_nodes;
  for (net::NodeId v : view.one_hop) {
    if (!std::binary_search(sky_nodes.begin(), sky_nodes.end(), v)) {
      candidates.push_back(v);
    }
  }

  const auto angle_at = [&](net::NodeId v) {
    return geom::normalize_angle((g.node(v).pos - origin).angle());
  };

  std::vector<net::NodeId> chosen;
  // Quadrant partition (Section 2.2: "partition the plane into quadrants").
  for (int q = 0; q < 4; ++q) {
    const double lo = geom::kPi / 2.0 * q;
    const double hi = geom::kPi / 2.0 * (q + 1);

    // 2-hop neighbors in this quadrant, swept counter-clockwise.
    std::vector<net::NodeId> targets;
    for (net::NodeId w : view.two_hop) {
      const double a = angle_at(w);
      if (a >= lo && a < hi) targets.push_back(w);
    }
    if (targets.empty()) continue;
    std::sort(targets.begin(), targets.end(),
              [&](net::NodeId a, net::NodeId b) {
                return angle_at(a) < angle_at(b);
              });

    // Greedy sweep: for the first uncovered target (in angle order), pick
    // the candidate that covers it and the most further targets; repeat.
    std::vector<bool> covered(targets.size(), false);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (covered[t]) continue;
      net::NodeId pick = net::kNoNode;
      std::size_t best_gain = 0;
      for (net::NodeId v : candidates) {
        if (!g.linked(v, targets[t])) continue;
        std::size_t gain = 0;
        for (std::size_t s = t; s < targets.size(); ++s) {
          if (!covered[s] && g.linked(v, targets[s])) ++gain;
        }
        if (gain > best_gain) {
          best_gain = gain;
          pick = v;
        }
      }
      if (pick == net::kNoNode) continue;  // uncoverable (shouldn't happen)
      chosen.push_back(pick);
      for (std::size_t s = t; s < targets.size(); ++s) {
        if (g.linked(pick, targets[s])) covered[s] = true;
      }
    }
  }

  std::sort(chosen.begin(), chosen.end());
  chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
  return chosen;
}

}  // namespace mldcs::bcast
