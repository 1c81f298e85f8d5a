// Tests for the five forwarding-set algorithms: guarantees, orderings
// (optimal <= greedy <= flooding), scheme metadata, and the skyline set's
// coverage property.

#include "broadcast/forwarding.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/validate.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"

namespace mldcs::bcast {
namespace {

net::DiskGraph random_graph(std::uint64_t seed, double degree, bool hetero) {
  net::DeploymentParams p;
  p.target_avg_degree = degree;
  p.model = hetero ? net::RadiusModel::kUniform : net::RadiusModel::kHomogeneous;
  sim::Xoshiro256 rng(seed);
  return net::generate_graph(p, rng);
}

bool dominates_two_hop(const net::DiskGraph& g, const LocalView& view,
                       const std::vector<net::NodeId>& fwd) {
  for (net::NodeId w : view.two_hop) {
    bool covered = false;
    for (net::NodeId v : fwd) {
      if (g.linked(v, w)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

TEST(SchemeMetadataTest, NamesAndCapabilities) {
  EXPECT_EQ(scheme_name(Scheme::kFlooding), "flooding");
  EXPECT_EQ(scheme_name(Scheme::kSkyline), "skyline");
  EXPECT_EQ(scheme_name(Scheme::kSelectingForwardingSet), "sel-fwd-set");
  EXPECT_EQ(scheme_name(Scheme::kGreedy), "greedy");
  EXPECT_EQ(scheme_name(Scheme::kOptimal), "optimal");

  EXPECT_FALSE(requires_two_hop_info(Scheme::kFlooding));
  EXPECT_FALSE(requires_two_hop_info(Scheme::kSkyline));
  EXPECT_TRUE(requires_two_hop_info(Scheme::kGreedy));
  EXPECT_TRUE(requires_two_hop_info(Scheme::kOptimal));
  EXPECT_TRUE(requires_two_hop_info(Scheme::kSelectingForwardingSet));

  EXPECT_TRUE(supports_heterogeneous(Scheme::kSkyline));
  EXPECT_FALSE(supports_heterogeneous(Scheme::kSelectingForwardingSet));
}

TEST(FloodingTest, ForwardingSetIsAllNeighbors) {
  const auto g = random_graph(3, 8, true);
  const LocalView view = local_view(g, 0);
  EXPECT_EQ(forwarding_set(g, view, Scheme::kFlooding), view.one_hop);
}

TEST(LocalViewTest, DiskSetIsValidLocalSet) {
  const auto g = random_graph(5, 10, true);
  const LocalView view = local_view(g, 0);
  const auto disks = local_disk_set(g, view);
  ASSERT_EQ(disks.size(), view.one_hop.size() + 1);
  EXPECT_EQ(core::describe_local_set_violation(disks, g.node(0).pos), "");
}

TEST(LocalViewTest, TwoHopCoverageIndexesAreValid) {
  const auto g = random_graph(6, 8, true);
  const LocalView view = local_view(g, 0);
  const auto covers = two_hop_coverage(g, view);
  ASSERT_EQ(covers.size(), view.one_hop.size());
  for (std::size_t i = 0; i < covers.size(); ++i) {
    for (std::uint32_t w : covers[i]) {
      ASSERT_LT(w, view.two_hop.size());
      EXPECT_TRUE(g.linked(view.one_hop[i], view.two_hop[w]));
    }
  }
}

TEST(SkylineForwardingTest, CoversSameAreaAsAllNeighbors) {
  // The defining property: the skyline forwarding set plus the relay's own
  // disk covers the same area as all 1-hop disks together.
  for (std::uint64_t seed : {10u, 11u, 12u, 13u}) {
    const auto g = random_graph(seed, 10, true);
    const LocalView view = local_view(g, 0);
    const auto disks = local_disk_set(g, view);
    const auto fwd = skyline_forwarding_set(g, view);
    // Subset indices: relay (0) + chosen neighbors.
    std::vector<std::size_t> subset{0};
    for (net::NodeId v : fwd) {
      const auto it =
          std::lower_bound(view.one_hop.begin(), view.one_hop.end(), v);
      subset.push_back(
          1 + static_cast<std::size_t>(
                  std::distance(view.one_hop.begin(), it)));
    }
    EXPECT_TRUE(
        core::is_disk_cover_set(subset, disks, g.node(0).pos, 2048))
        << "seed " << seed;
  }
}

TEST(SkylineForwardingTest, NeverLargerThanFlooding) {
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const auto g = random_graph(seed, 12, true);
    const LocalView view = local_view(g, 0);
    EXPECT_LE(skyline_forwarding_set(g, view).size(), view.one_hop.size());
  }
}

TEST(GreedyAndOptimalTest, BothDominateTwoHopNeighbors) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    for (bool hetero : {false, true}) {
      const auto g = random_graph(seed, 10, hetero);
      const LocalView view = local_view(g, 0);
      const auto greedy = greedy_forwarding_set(g, view);
      const auto optimal = optimal_forwarding_set(g, view);
      EXPECT_TRUE(dominates_two_hop(g, view, greedy)) << "seed " << seed;
      EXPECT_TRUE(dominates_two_hop(g, view, optimal)) << "seed " << seed;
      EXPECT_LE(optimal.size(), greedy.size());
    }
  }
}

TEST(CalinescuTest, ThrowsOnHeterogeneousNetwork) {
  // Build a graph that is definitely heterogeneous around node 0.
  const auto g = net::DiskGraph::build(
      {{0, {0, 0}, 1.0}, {1, {0.5, 0}, 1.7}, {2, {-0.5, 0}, 1.0}});
  const LocalView view = local_view(g, 0);
  EXPECT_THROW(calinescu_forwarding_set(g, view), std::invalid_argument);
}

TEST(CalinescuTest, DominatesTwoHopInHomogeneousNetworks) {
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    const auto g = random_graph(seed, 10, false);
    const LocalView view = local_view(g, 0);
    const auto fwd = calinescu_forwarding_set(g, view);
    EXPECT_TRUE(dominates_two_hop(g, view, fwd)) << "seed " << seed;
    EXPECT_LE(fwd.size(), view.one_hop.size());
  }
}

TEST(CalinescuTest, EmptyTwoHopGivesEmptySet) {
  // Complete graph: everyone is 1-hop of everyone.
  const auto g = net::DiskGraph::build(
      {{0, {0, 0}, 2.0}, {1, {0.3, 0}, 2.0}, {2, {0, 0.3}, 2.0}});
  const LocalView view = local_view(g, 0);
  EXPECT_TRUE(view.two_hop.empty());
  EXPECT_TRUE(calinescu_forwarding_set(g, view).empty());
  EXPECT_TRUE(greedy_forwarding_set(g, view).empty());
  EXPECT_TRUE(optimal_forwarding_set(g, view).empty());
}

TEST(ForwardingSetOrderingTest, PaperFigure51Ordering) {
  // The robust ordering of Figure 5.1: optimal <= greedy <= flooding and
  // optimal <= skyline <= flooding, per relay.
  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    const auto g = random_graph(seed, 10, false);
    const LocalView view = local_view(g, 0);
    const auto sky = forwarding_set(g, view, Scheme::kSkyline);
    const auto greedy = forwarding_set(g, view, Scheme::kGreedy);
    const auto optimal = forwarding_set(g, view, Scheme::kOptimal);
    const auto flood = forwarding_set(g, view, Scheme::kFlooding);
    EXPECT_LE(optimal.size(), greedy.size());
    EXPECT_LE(greedy.size(), flood.size());
    EXPECT_LE(sky.size(), flood.size());
  }
}

TEST(ForwardingSetTest, ResultsAreSortedUniqueNeighbors) {
  const auto g = random_graph(80, 10, true);
  const LocalView view = local_view(g, 0);
  for (Scheme s : {Scheme::kFlooding, Scheme::kSkyline, Scheme::kGreedy,
                   Scheme::kOptimal}) {
    const auto fwd = forwarding_set(g, view, s);
    EXPECT_TRUE(std::is_sorted(fwd.begin(), fwd.end()));
    EXPECT_EQ(std::adjacent_find(fwd.begin(), fwd.end()), fwd.end());
    for (net::NodeId v : fwd) {
      EXPECT_TRUE(std::binary_search(view.one_hop.begin(), view.one_hop.end(),
                                     v));
    }
  }
}

TEST(ForwardingSetTest, ConvenienceOverloadMatchesViewOverload) {
  const auto g = random_graph(90, 8, true);
  const LocalView view = local_view(g, 0);
  EXPECT_EQ(forwarding_set(g, 0, Scheme::kSkyline),
            forwarding_set(g, view, Scheme::kSkyline));
}

TEST(ForwardingSetTest, IsolatedRelayHasEmptySets) {
  const auto g = net::DiskGraph::build({{0, {0, 0}, 1.0}, {1, {9, 9}, 1.0}});
  const LocalView view = local_view(g, 0);
  for (Scheme s : {Scheme::kFlooding, Scheme::kSkyline, Scheme::kGreedy,
                   Scheme::kOptimal}) {
    EXPECT_TRUE(forwarding_set(g, view, s).empty());
  }
}

}  // namespace
}  // namespace mldcs::bcast
