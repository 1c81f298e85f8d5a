#pragma once

/// \file self_pruning.hpp
/// Receiver-based broadcast baselines from the related-work chapter.
///
/// The forwarding-set schemes of Chapter 5 are *sender-designated*: the
/// transmitter names its relays.  The self-pruning family (Wu & Dai [10],
/// Wu & Li [11]) is *receiver-based*: on first receipt, a node compares its
/// own neighborhood with the sender's and stays silent when it would add
/// nothing.  Because the silence decision is made with fresh local
/// information at every hop, self-pruning composes with any sender scheme;
/// `simulate_pruned_broadcast` runs the hybrid — the one delivery loop of
/// broadcast_sim.hpp with this rule as its receiver gate — which is where
/// the network-wide storm reduction the forwarding-set literature promises
/// actually materializes (see the abl_network_storm bench).

#include "broadcast/broadcast_sim.hpp"

namespace mldcs::bcast {

/// Wu-Li self-pruning rule: receiver v, hearing sender s, retransmits iff
/// v has at least one neighbor that is neither s nor a neighbor of s —
/// i.e. iff N(v) \ (N(s) + {s}) is non-empty.  Exposed for tests.
[[nodiscard]] bool self_pruning_would_forward(const net::DiskGraph& g,
                                              net::NodeId sender,
                                              net::NodeId receiver);

/// Simulate a broadcast where a node retransmits iff (a) the sender-side
/// scheme designated it (flooding designates everyone), AND (b) the Wu-Li
/// self-pruning rule does not silence it.  Delivery is still guaranteed in
/// the graphs where the pure scheme guarantees it: a silenced node's
/// neighbors all hear the same transmission it heard.  Emits the events
/// and telemetry of any broadcast, tagged kSelfPrunedTag.
[[nodiscard]] BroadcastResult simulate_pruned_broadcast(
    const net::DiskGraph& g, net::NodeId source, Scheme scheme,
    ReceptionModel reception = ReceptionModel::kBidirectionalLink);

}  // namespace mldcs::bcast
