// The library's own fan-out, checked against the inline path: a skyline
// simulate_broadcast computes every transmitter's forwarding set in one
// pass over the transmitter closure on sim::default_pool(), and a large
// DiskGraph::build runs its count and fill passes there.  Called from
// inside a pool worker, both run inline (sim::ThreadPool::participants),
// so each check runs a call twice — from the test's main thread, then from
// inside a dispatch on a two-worker pool — and demands the same output.
//
// tests/CMakeLists.txt registers this binary four times: at the host's
// default pool size, and with MLDCS_THREADS=1, 2 and 3.  default_pool() reads
// the variable once per process, so each pool size needs its own process.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/broadcast_sim.hpp"
#include "broadcast/self_pruning.hpp"
#include "net/disk_graph.hpp"
#include "net/topology.hpp"
#include "obs/event_log.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "support/pool_tasks.hpp"

namespace mldcs {
namespace {

using bcast::BroadcastResult;
using bcast::ReceptionModel;
using bcast::Scheme;
using test::pool_tasks;

/// The paper's heterogeneous deployment: radii U[1,2], ~1000 nodes at side
/// 12.5.  The broadcast checks run at average degree 10 rather than the
/// paper's 36.8: the sanitizer presets check every skyline's invariants,
/// and at 36.8 one broadcast costs seconds there.  Frontiers still reach
/// the pool (the test asserts it).
std::vector<net::Node> paper_nodes(std::uint64_t seed, double degree,
                                   double side = 12.5) {
  net::DeploymentParams p;
  p.model = net::RadiusModel::kUniform;
  p.target_avg_degree = degree;
  p.side = side;
  sim::Xoshiro256 rng(seed);
  return net::generate_deployment(p, rng);
}

/// Runs `f` in one block of a two-block dispatch on a two-worker pool:
/// inside a pool dispatch, so the library's own stages run inline.
template <typename F>
void run_inline(F&& f) {
  sim::ThreadPool two(2);
  two.parallel_for(2, [&f](std::size_t i) {
    if (i != 0) return;
    ASSERT_EQ(sim::default_pool().participants(1024, 1), 1u);
    f();
  });
}

/// One armed broadcast: its result and its flight-recorder events.
struct Recorded {
  BroadcastResult result;
  std::vector<obs::Event> events;
};

template <typename F>
Recorded record(F&& broadcast) {
  obs::events_clear();
  obs::events_start();
  Recorded out;
  out.result = broadcast();
  obs::events_stop();
  out.events = obs::events_snapshot();
  obs::events_clear();
  return out;
}

void expect_same(const Recorded& pooled, const Recorded& inl,
                 const std::string& where) {
  EXPECT_EQ(pooled.result.transmissions, inl.result.transmissions) << where;
  EXPECT_EQ(pooled.result.delivered, inl.result.delivered) << where;
  EXPECT_EQ(pooled.result.max_hops, inl.result.max_hops) << where;
  EXPECT_EQ(pooled.result.reachable, inl.result.reachable) << where;
  EXPECT_EQ(pooled.result.redundant_receptions,
            inl.result.redundant_receptions)
      << where;
  ASSERT_EQ(pooled.events.size(), inl.events.size()) << where;
  for (std::size_t i = 0; i < pooled.events.size(); ++i) {
    const obs::Event& a = pooled.events[i];
    const obs::Event& b = inl.events[i];
    ASSERT_TRUE(a.id == b.id && a.parent == b.parent && a.value == b.value &&
                a.a == b.a && a.b == b.b && a.type == b.type)
        << where << ": event " << i << " differs";
  }
}

// Plain and self-pruned skyline broadcasts, under both reception models,
// over several deployments and sources: the pooled run and the inline run
// give the same result and the same armed event stream.
TEST(ParallelBroadcastTest, SkylineBroadcastMatchesInlineRun) {
  std::uint64_t pooled_tasks = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const net::DiskGraph g =
        net::DiskGraph::build(paper_nodes(seed, 10.0));
    for (const net::NodeId source :
         {net::NodeId{0}, static_cast<net::NodeId>(g.size() / 2),
          static_cast<net::NodeId>(g.size() - 1)}) {
      for (const ReceptionModel model : {ReceptionModel::kBidirectionalLink,
                                         ReceptionModel::kPhysicalCoverage}) {
        for (const bool pruned : {false, true}) {
          const auto broadcast = [&] {
            return pruned ? bcast::simulate_pruned_broadcast(
                                g, source, Scheme::kSkyline, model)
                          : bcast::simulate_broadcast(g, source,
                                                      Scheme::kSkyline, model);
          };
          const std::uint64_t before = pool_tasks();
          const Recorded pooled = record(broadcast);
          pooled_tasks += pool_tasks() - before;
          Recorded inl;
          run_inline([&] { inl = record(broadcast); });
          const std::string where =
              "seed " + std::to_string(seed) + ", source " +
              std::to_string(source) + ", model " +
              std::to_string(static_cast<int>(model)) +
              (pruned ? ", pruned" : ", plain");
          ASSERT_GE(pooled.result.transmissions, 2u) << where;
          ASSERT_FALSE(pooled.events.empty()) << where;
          expect_same(pooled, inl, where);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // With more than one worker the pooled runs must actually have reached
  // the pool — otherwise this file tests the inline path twice.
  if (sim::default_pool().size() > 1) {
    EXPECT_GT(pooled_tasks, 0u);
  }
}

/// A node at (x, y) with radius r.
net::Node at(double x, double y, double r) {
  net::Node n;
  n.pos = {x, y};
  n.radius = r;
  return n;
}

/// `count` unit-radius nodes one unit apart along y = `y` from x = `x0`:
/// each links only its two chain neighbors, so a broadcast along it has
/// one transmitter per hop.
void add_chain(std::vector<net::Node>& nodes, std::size_t count, double x0,
               double y) {
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back(at(x0 + static_cast<double>(i), y, 1.0));
  }
}

/// A closure shape the paper deployments do not reach, with its source.
struct Shape {
  const char* name;
  net::DiskGraph graph;
  net::NodeId source;
};

std::vector<Shape> closure_shapes() {
  std::vector<Shape> shapes;
  {
    // A chain: every step of the closure hands one relay to the next, so
    // every other participant waits at every step.
    std::vector<net::Node> nodes;
    add_chain(nodes, 300, 0.0, 0.0);
    shapes.push_back({"chain", net::DiskGraph::build(std::move(nodes)), 0});
  }
  {
    // A star: the source's unit disk sits inside a ring of 40 unit disks
    // centred just inside its boundary, and names all 40 in one relay;
    // the ring nodes name nothing new.
    std::vector<net::Node> nodes{at(0.0, 0.0, 1.0)};
    for (int k = 0; k < 40; ++k) {
      const double a = 2.0 * std::numbers::pi * k / 40.0;
      nodes.push_back(at(0.999 * std::cos(a), 0.999 * std::sin(a), 1.0));
    }
    shapes.push_back({"star", net::DiskGraph::build(std::move(nodes)), 0});
  }
  {
    // An isolated source beside a chain: the closure is the source alone.
    std::vector<net::Node> nodes{at(-50.0, 0.0, 1.0)};
    add_chain(nodes, 60, 0.0, 0.0);
    shapes.push_back({"isolated", net::DiskGraph::build(std::move(nodes)), 0});
  }
  {
    // A source past the last node: an empty result, no closure at all.
    std::vector<net::Node> nodes;
    add_chain(nodes, 60, 0.0, 0.0);
    shapes.push_back({"out-of-range", net::DiskGraph::build(std::move(nodes)),
                      60});
  }
  {
    // Two components, a paper-density patch and a chain far away: the
    // closure stays in the source's.
    std::vector<net::Node> nodes = paper_nodes(5, 12.0, 3.0);
    add_chain(nodes, 50, 100.0, 100.0);
    shapes.push_back({"two components",
                      net::DiskGraph::build(std::move(nodes)), 1});
  }
  return shapes;
}

// Closure shapes the paper deployments do not reach, plain and pruned under
// both reception models: the pooled simulate_broadcast equals the inline
// run and delivery over compute_all_skylines' sets (the FIFO reference,
// which gates while it delivers), in results and armed events.
TEST(ParallelBroadcastTest, ClosureShapesMatchFifoReference) {
  std::uint64_t pooled_tasks = 0;
  sim::ThreadPool serial(1);
  const std::vector<Shape> shapes = closure_shapes();
  for (const Shape& shape : shapes) {
    const net::DiskGraph& g = shape.graph;
    ASSERT_GE(g.size(), 32u) << shape.name << " should reach the pool";
    const bcast::AllSkylines all = bcast::compute_all_skylines(g, serial);
    const auto sets = [&all](net::NodeId u) { return all.forwarding_set(u); };
    for (const ReceptionModel model : {ReceptionModel::kBidirectionalLink,
                                       ReceptionModel::kPhysicalCoverage}) {
      for (const bool pruned : {false, true}) {
        const auto broadcast = [&] {
          return pruned ? bcast::simulate_pruned_broadcast(
                              g, shape.source, Scheme::kSkyline, model)
                        : bcast::simulate_broadcast(g, shape.source,
                                                    Scheme::kSkyline, model);
        };
        const std::uint64_t before = pool_tasks();
        const Recorded pooled = record(broadcast);
        pooled_tasks += pool_tasks() - before;
        Recorded inl;
        run_inline([&] { inl = record(broadcast); });
        bcast::DeliveryScratch scratch;
        const Recorded fifo = record([&] {
          return bcast::detail::deliver_gated(
              g, shape.source, Scheme::kSkyline, sets, model, scratch,
              pruned ? &bcast::self_pruning_would_forward : nullptr, pruned);
        });
        const std::string where =
            std::string(shape.name) + ", model " +
            std::to_string(static_cast<int>(model)) +
            (pruned ? ", pruned" : ", plain");
        expect_same(pooled, inl, where + " (inline)");
        expect_same(pooled, fifo, where + " (FIFO reference)");
        if (HasFatalFailure()) return;
      }
    }
  }
  // The shapes' own outcomes, so a wrong reference cannot pass unseen.
  const auto plain = [&](std::size_t i) {
    return bcast::simulate_broadcast(shapes[i].graph, shapes[i].source,
                                     Scheme::kSkyline);
  };
  EXPECT_EQ(plain(0).transmissions, 300u);  // the chain: every node relays
  EXPECT_EQ(plain(0).max_hops, 299u);
  EXPECT_EQ(plain(1).transmissions, 41u);   // the star: source + ring
  EXPECT_EQ(plain(1).max_hops, 1u);
  EXPECT_EQ(plain(2).transmissions, 1u);    // the isolated source
  EXPECT_EQ(plain(2).reachable, 1u);
  EXPECT_EQ(plain(3).transmissions, 0u);    // out of range: empty
  EXPECT_EQ(plain(3).reachable, 0u);
  EXPECT_GE(plain(4).transmissions, 2u);     // two components: the patch
  EXPECT_LE(plain(4).reachable, shapes[4].graph.size() - 50);
  if (sim::default_pool().size() > 1) {
    EXPECT_GT(pooled_tasks, 0u);
  }
}

// DiskGraph::build gives the same CSR arrays on the pool and inline, below
// and above the size at which it starts to fan out
// (DiskGraph::kParallelBuildNodes): ~15 nodes, and ~400 to ~5700.
TEST(ParallelBroadcastTest, GraphBuildMatchesInlineRun) {
  for (const double side : {1.5, 8.0, 12.5, 25.0, 30.0}) {
    const std::vector<net::Node> nodes = paper_nodes(7, 36.8, side);
    const std::uint64_t before = pool_tasks();
    const net::DiskGraph pooled = net::DiskGraph::build(nodes);
    const std::uint64_t tasks = pool_tasks() - before;
    net::DiskGraph inl;
    run_inline([&] { inl = net::DiskGraph::build(nodes); });

    const std::string where = std::to_string(nodes.size()) + " nodes";
    ASSERT_EQ(pooled.size(), inl.size()) << where;
    ASSERT_EQ(pooled.edge_count(), inl.edge_count()) << where;
    for (net::NodeId u = 0; u < pooled.size(); ++u) {
      const auto a = pooled.neighbors(u);
      const auto b = inl.neighbors(u);
      ASSERT_EQ(a.size(), b.size()) << where << ", node " << u;
      ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
          << where << ", node " << u;
    }
    if (nodes.size() < net::DiskGraph::kParallelBuildNodes) {
      EXPECT_EQ(tasks, 0u) << where << " should build inline";
    } else if (sim::default_pool().size() > 1) {
      EXPECT_GT(tasks, 0u) << where << " should build on the pool";
    }
  }
}

}  // namespace
}  // namespace mldcs
