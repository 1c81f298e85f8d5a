#include "broadcast/forwarding.hpp"

#include <algorithm>

#include "broadcast/set_cover.hpp"
#include "core/skyline_dc.hpp"

namespace mldcs::bcast {

std::string_view scheme_name(Scheme s) noexcept {
  switch (s) {
    case Scheme::kFlooding:
      return "flooding";
    case Scheme::kSkyline:
      return "skyline";
    case Scheme::kSelectingForwardingSet:
      return "sel-fwd-set";
    case Scheme::kGreedy:
      return "greedy";
    case Scheme::kOptimal:
      return "optimal";
  }
  return "?";
}

bool requires_two_hop_info(Scheme s) noexcept {
  return s == Scheme::kSelectingForwardingSet || s == Scheme::kGreedy ||
         s == Scheme::kOptimal;
}

bool supports_heterogeneous(Scheme s) noexcept {
  return s != Scheme::kSelectingForwardingSet;
}

namespace {

/// Disk 0 is the relay itself; its area was served by the transmission the
/// relay already made, so it never needs a forwarder (Section 3.2).
std::vector<net::NodeId> sky_set_to_node_ids(
    const std::vector<std::size_t>& sky, const LocalView& view) {
  std::vector<net::NodeId> out;
  out.reserve(sky.size());
  for (std::size_t idx : sky) {
    if (idx == 0) continue;
    out.push_back(view.one_hop[idx - 1]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<net::NodeId> skyline_forwarding_set(const net::DiskGraph& g,
                                                const LocalView& view) {
  const std::vector<geom::Disk> disks = local_disk_set(g, view);
  core::SkylineWorkspace ws;
  return sky_set_to_node_ids(
      core::compute_skyline(disks, g.node(view.self).pos, ws).skyline_set(),
      view);
}

namespace {

SetCoverInstance two_hop_cover_instance(const net::DiskGraph& g,
                                        const LocalView& view) {
  SetCoverInstance inst;
  inst.universe_size = view.two_hop.size();
  inst.sets = two_hop_coverage(g, view);
  return inst;
}

std::vector<net::NodeId> to_node_ids(const LocalView& view,
                                     const std::vector<std::size_t>& picks) {
  std::vector<net::NodeId> out;
  out.reserve(picks.size());
  for (std::size_t i : picks) out.push_back(view.one_hop[i]);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<net::NodeId> greedy_forwarding_set(const net::DiskGraph& g,
                                               const LocalView& view) {
  return to_node_ids(view, greedy_set_cover(two_hop_cover_instance(g, view)));
}

std::vector<net::NodeId> optimal_forwarding_set(const net::DiskGraph& g,
                                                const LocalView& view) {
  return to_node_ids(view, optimal_set_cover(two_hop_cover_instance(g, view)));
}

std::vector<net::NodeId> forwarding_set(const net::DiskGraph& g,
                                        const LocalView& view, Scheme scheme) {
  switch (scheme) {
    case Scheme::kFlooding:
      return view.one_hop;
    case Scheme::kSkyline:
      return skyline_forwarding_set(g, view);
    case Scheme::kSelectingForwardingSet:
      return calinescu_forwarding_set(g, view);
    case Scheme::kGreedy:
      return greedy_forwarding_set(g, view);
    case Scheme::kOptimal:
      return optimal_forwarding_set(g, view);
  }
  return {};
}

std::vector<net::NodeId> forwarding_set(const net::DiskGraph& g,
                                        net::NodeId relay, Scheme scheme) {
  return forwarding_set(g, local_view(g, relay), scheme);
}

}  // namespace mldcs::bcast
