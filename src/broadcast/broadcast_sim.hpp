#pragma once

/// \file broadcast_sim.hpp
/// Network-wide broadcast simulation under sender-designated forwarding.
///
/// The source transmits; each transmission names the sender's forwarding
/// set; a node re-transmits (once) iff it has received the message and some
/// sender designated it.  Blind flooding is the special case "everyone is
/// designated".  The simulator counts transmissions (the broadcast-storm
/// metric), delivery, and hop latency, and can model *physical* reception
/// (any node inside the sender's disk hears it) separately from the
/// bidirectional-link graph used for neighbor knowledge — the distinction
/// at the heart of Figure 5.6.

#include <cstdint>
#include <vector>

#include "broadcast/forwarding.hpp"
#include "net/disk_graph.hpp"

namespace mldcs::bcast {

/// Reception model for a transmission by node u.
enum class ReceptionModel {
  kBidirectionalLink,  ///< v hears u iff linked(u, v) (the paper's graph model)
  kPhysicalCoverage,   ///< v hears u iff v is inside B(u, r_u)
};

/// Outcome of one simulated broadcast.
struct BroadcastResult {
  std::uint64_t transmissions = 0;  ///< nodes that transmitted (incl. source)
  std::uint64_t delivered = 0;      ///< nodes that received (incl. source)
  std::uint64_t max_hops = 0;       ///< eccentricity of the delivery tree
  std::uint64_t reachable = 0;      ///< nodes reachable from source in the graph
  /// Receptions of an already-held copy — the redundancy metric of the
  /// broadcast storm analysis (Ni et al. [1]): every one of these is a
  /// wasted airtime slot at the receiver.
  std::uint64_t redundant_receptions = 0;
  /// True if every graph-reachable node received the message.
  [[nodiscard]] bool full_delivery() const noexcept {
    return delivered >= reachable;
  }
  /// Fraction of reachable nodes that received the message.
  [[nodiscard]] double delivery_ratio() const noexcept {
    return reachable == 0 ? 1.0
                          : static_cast<double>(delivered) /
                                static_cast<double>(reachable);
  }
};

/// Simulate one broadcast from `source` with forwarding sets chosen by
/// `scheme` at every relaying node.  Skyline sets come from 1-hop
/// information only, through the shared relay loop of relay_skyline.hpp
/// (the one compute_all_skylines runs), and equal forwarding_set(g, u,
/// Scheme::kSkyline); the 2-hop schemes use forwarding_set's LocalView
/// path.
[[nodiscard]] BroadcastResult simulate_broadcast(
    const net::DiskGraph& g, net::NodeId source, Scheme scheme,
    ReceptionModel reception = ReceptionModel::kBidirectionalLink);

}  // namespace mldcs::bcast
