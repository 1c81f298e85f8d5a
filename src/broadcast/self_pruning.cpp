#include "broadcast/self_pruning.hpp"

#include <algorithm>

namespace mldcs::bcast {

bool self_pruning_would_forward(const net::DiskGraph& g, net::NodeId sender,
                                net::NodeId receiver) {
  const auto ns = g.neighbors(sender);
  for (net::NodeId w : g.neighbors(receiver)) {
    if (w == sender) continue;
    if (!std::binary_search(ns.begin(), ns.end(), w)) return true;
  }
  return false;
}

BroadcastResult simulate_pruned_broadcast(const net::DiskGraph& g,
                                          net::NodeId source, Scheme scheme,
                                          ReceptionModel reception) {
  // The hybrid rule: designated by the sender AND not self-pruned.
  return detail::simulate_broadcast(g, source, scheme, reception,
                                    &self_pruning_would_forward);
}

}  // namespace mldcs::bcast
