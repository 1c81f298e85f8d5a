#include "obs/event_replay.hpp"

#include <algorithm>
#include <sstream>

namespace mldcs::obs {

namespace {

/// Grow `r.fates` so `node` is addressable.
NodeFate& fate_of(ReplayedBroadcast& r, std::uint32_t node) {
  if (node >= r.fates.size()) r.fates.resize(node + 1);
  return r.fates[node];
}

}  // namespace

std::vector<ReplayedBroadcast> replay_broadcasts(
    std::span<const Event> events) {
  std::vector<ReplayedBroadcast> out;
  ReplayedBroadcast* cur = nullptr;
  for (const Event& e : events) {
    if (e.type == EventType::kBroadcast) {
      cur = &out.emplace_back();
      cur->source = e.a;
      cur->scheme_tag = e.b;
      cur->begin_event = e.id;
      cur->reachable = e.value;
      cur->delivered = 1;  // the source holds the message by definition
      NodeFate& src = fate_of(*cur, e.a);
      src.received = true;
      src.designated = true;  // the source always relays
      continue;
    }
    if (cur == nullptr) continue;  // non-broadcast traffic before any marker
    switch (e.type) {
      case EventType::kTx: {
        ++cur->transmissions;
        fate_of(*cur, e.a).transmitted = true;
        break;
      }
      case EventType::kRx: {
        ++cur->delivered;
        cur->max_hops = std::max(cur->max_hops, e.value);
        NodeFate& f = fate_of(*cur, e.a);
        f.received = true;
        f.delivered_by = e.b;
        f.hop = e.value;
        f.rx_event = e.id;
        break;
      }
      case EventType::kDuplicateRx: {
        ++cur->redundant_receptions;
        ++fate_of(*cur, e.a).duplicates_heard;
        if (e.b != kNoNode) {
          if (e.b >= cur->dup_caused.size()) cur->dup_caused.resize(e.b + 1);
          ++cur->dup_caused[e.b];
        }
        break;
      }
      case EventType::kDesignate: {
        NodeFate& f = fate_of(*cur, e.a);
        f.designated = true;
        f.designated_by = e.b;
        break;
      }
      case EventType::kSuppress: {
        fate_of(*cur, e.a).suppressed = true;
        break;
      }
      default:
        break;  // mobility/watchdog events interleave freely; not ours
    }
  }
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> redundancy_by_transmitter(
    const ReplayedBroadcast& r) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (std::uint32_t u = 0; u < r.dup_caused.size(); ++u) {
    if (r.dup_caused[u] != 0) out.emplace_back(u, r.dup_caused[u]);
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return x.second != y.second ? x.second > y.second : x.first < y.first;
  });
  return out;
}

std::string explain_missed(const ReplayedBroadcast& r, std::uint32_t node,
                           std::span<const std::uint32_t> neighbors) {
  std::ostringstream os;
  const NodeFate f = r.fate(node);
  if (node == r.source) {
    os << "node " << node << " is the source";
    return os.str();
  }
  if (f.received) {
    os << "node " << node << " received at hop " << f.hop << " from node "
       << f.delivered_by;
    if (f.transmitted) {
      os << " and relayed";
      if (f.designated_by != kNoNode) {
        os << " (designated by node " << f.designated_by << ")";
      }
    } else if (f.suppressed) {
      os << " and was suppressed (no transmission ever designated it)";
    }
    if (f.duplicates_heard > 0) {
      os << "; heard " << f.duplicates_heard << " redundant cop"
         << (f.duplicates_heard == 1 ? "y" : "ies");
    }
    return os.str();
  }

  os << "node " << node << " never received the message: ";
  if (neighbors.empty()) {
    os << "it has no neighbors (isolated)";
    return os.str();
  }
  std::size_t n_received = 0;
  std::size_t n_transmitted = 0;
  std::size_t n_suppressed = 0;
  std::vector<std::uint32_t> suppressed_nb;
  std::vector<std::uint32_t> transmitted_nb;
  for (const std::uint32_t v : neighbors) {
    const NodeFate nf = r.fate(v);
    if (nf.received) ++n_received;
    if (nf.transmitted) {
      ++n_transmitted;
      transmitted_nb.push_back(v);
    }
    if (nf.suppressed) {
      ++n_suppressed;
      suppressed_nb.push_back(v);
    }
  }
  if (n_received == 0) {
    os << "none of its " << neighbors.size()
       << " neighbors received it either (the delivery tree stalled "
          "upstream)";
  } else if (n_transmitted > 0) {
    os << n_transmitted << " neighbor(s) transmitted (e.g. node "
       << transmitted_nb.front()
       << ") but their transmissions did not reach it (link/coverage "
          "asymmetry: the bidirectional-link graph and physical coverage "
          "disagree here)";
  } else if (n_suppressed > 0) {
    os << n_received << " neighbor(s) received it, but every one was "
       << "suppressed — none was ever designated (e.g. node "
       << suppressed_nb.front()
       << "); the forwarding sets left this node uncovered";
  } else {
    os << n_received << " neighbor(s) received it but none has transmitted "
       << "or been suppressed (log truncated mid-broadcast?)";
  }
  return os.str();
}

}  // namespace mldcs::obs
