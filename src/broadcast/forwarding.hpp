#pragma once

/// \file forwarding.hpp
/// The five forwarding-set algorithms compared in Chapter 5.
///
/// | Scheme                    | Info needed | Heterogeneous? | Guarantees            |
/// |---------------------------|-------------|----------------|-----------------------|
/// | blind flooding            | 1-hop       | yes            | all neighbors relay   |
/// | skyline (MLDCS, ours)     | 1-hop       | yes            | covers 1-hop area     |
/// | selecting forwarding set  | 1+2-hop     | no (paper [6]) | covers 2-hop nodes    |
/// | greedy (Chvátal / MPR)    | 1+2-hop     | yes            | covers 2-hop nodes    |
/// | optimal (exact min cover) | 1+2-hop     | yes            | min covering 2-hop    |
///
/// This is the per-relay reference path: one relay at a time, through a
/// LocalView, each skyline on a workspace built for the call.  Loops over
/// many relays (the sweep, SkylineCache, a skyline broadcast) run the
/// batch of relay_skyline.hpp instead, which the tests and the benchmark
/// oracle compare against forwarding_set(g, relay, Scheme::kSkyline).

#include <string_view>
#include <vector>

#include "broadcast/local_view.hpp"
#include "net/disk_graph.hpp"
#include "net/node.hpp"

namespace mldcs::bcast {

/// Forwarding-set selection scheme.
enum class Scheme {
  kFlooding,
  kSkyline,
  kSelectingForwardingSet,
  kGreedy,
  kOptimal,
};

/// Human-readable scheme name (matches the curve labels of Figures 5.1/5.4).
[[nodiscard]] std::string_view scheme_name(Scheme s) noexcept;

/// True if the scheme needs 2-hop neighborhood information (everything but
/// flooding and skyline).
[[nodiscard]] bool requires_two_hop_info(Scheme s) noexcept;

/// True if the scheme is defined for heterogeneous radii (all but the
/// selecting-forwarding-set algorithm of [6], per Section 5.1.2).
[[nodiscard]] bool supports_heterogeneous(Scheme s) noexcept;

/// Compute the forwarding set of `relay` under `scheme`: the subset of its
/// 1-hop neighbors designated to re-transmit.  Sorted node ids.
[[nodiscard]] std::vector<net::NodeId> forwarding_set(const net::DiskGraph& g,
                                                      net::NodeId relay,
                                                      Scheme scheme);

/// Same, with a precomputed local view (avoids recomputing 1/2-hop sets when
/// several schemes run on the same relay, as in every figure bench).
[[nodiscard]] std::vector<net::NodeId> forwarding_set(const net::DiskGraph& g,
                                                      const LocalView& view,
                                                      Scheme scheme);

/// The skyline/MLDCS forwarding set (our scheme): the skyline set of the
/// local disk set {self} + 1-hop neighbors, minus self.  1-hop info only,
/// O(n log n).  Builds a core::SkylineWorkspace for the call.
[[nodiscard]] std::vector<net::NodeId> skyline_forwarding_set(
    const net::DiskGraph& g, const LocalView& view);

/// Chvátal-greedy 2-hop cover (the paper's "greedy algorithm").
[[nodiscard]] std::vector<net::NodeId> greedy_forwarding_set(
    const net::DiskGraph& g, const LocalView& view);

/// Exact minimum 2-hop cover (the paper's "optimal algorithm").
[[nodiscard]] std::vector<net::NodeId> optimal_forwarding_set(
    const net::DiskGraph& g, const LocalView& view);

/// Călinescu et al. selecting-forwarding-set heuristic (homogeneous
/// networks); declared in calinescu.cpp.  Precondition: all radii equal
/// (checked; throws std::invalid_argument otherwise).
[[nodiscard]] std::vector<net::NodeId> calinescu_forwarding_set(
    const net::DiskGraph& g, const LocalView& view);

}  // namespace mldcs::bcast
