// Tests for the thread pool and deterministic parallel_for.

#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "net/disk_graph.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/rng.hpp"
#include "support/pool_tasks.hpp"

namespace mldcs::sim {
namespace {

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  const ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ExplicitSizeRespected) {
  const ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  pool.parallel_for(3, [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, WeightedChunksCoverEveryIndexOnce) {
  ThreadPool pool(4);
  // Skewed weights: one hub dwarfs everything else.
  std::vector<std::uint32_t> weights(100, 1);
  weights[7] = 1000;
  std::vector<int> visits(weights.size(), 0);
  std::mutex m;
  pool.parallel_weighted_chunks(
      weights, [&](std::size_t, std::size_t lo, std::size_t hi) {
        const std::lock_guard<std::mutex> lock(m);
        for (std::size_t i = lo; i < hi; ++i) ++visits[i];
      });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, WeightedChunksBalanceSkewedWeights) {
  ThreadPool pool(4);
  // Ascending quadratic weights: equal-count chunking would give the last
  // chunk ~58% of the total; weighted chunking must stay near 25% each.
  std::vector<std::uint32_t> weights(1000);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<std::uint32_t>(i * i / 1000 + 1);
  }
  std::uint64_t total = 0;
  for (const std::uint32_t w : weights) total += w;
  std::vector<std::uint64_t> chunk_weight(4, 0);
  std::size_t max_chunk = 0;
  std::mutex m;
  pool.parallel_weighted_chunks(
      weights, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        const std::lock_guard<std::mutex> lock(m);
        max_chunk = std::max(max_chunk, c);
        for (std::size_t i = lo; i < hi; ++i) chunk_weight[c] += weights[i];
      });
  ASSERT_LE(max_chunk, 3u);
  for (std::size_t c = 0; c <= max_chunk; ++c) {
    // Each chunk within (25 +- 10)% of the total: one index can overshoot
    // a boundary by at most the largest single weight (~0.1% here).
    EXPECT_GT(chunk_weight[c], total / 7);
    EXPECT_LT(chunk_weight[c], total / 2);
  }
}

TEST(ThreadPoolTest, WeightedChunksZeroTotalRunsOneChunk) {
  ThreadPool pool(4);
  const std::vector<std::uint32_t> weights(10, 0);
  std::vector<int> visits(weights.size(), 0);
  std::atomic<int> chunks{0};
  pool.parallel_weighted_chunks(
      weights, [&](std::size_t, std::size_t lo, std::size_t hi) {
        ++chunks;
        for (std::size_t i = lo; i < hi; ++i) ++visits[i];
      });
  EXPECT_EQ(chunks.load(), 1);
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, WeightedChunksEmptyInputIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_weighted_chunks(
      std::span<const std::uint32_t>{},
      [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ResultsIndependentOfThreadCount) {
  // Each index computes into its own slot; totals must match at any
  // parallelism level (the determinism contract).
  const auto run = [](std::size_t threads) {
    std::vector<double> out(500);
    parallel_for(
        500, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; },
        threads);
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  const double t1 = run(1);
  const double t4 = run(4);
  const double t7 = run(7);
  EXPECT_DOUBLE_EQ(t1, t4);
  EXPECT_DOUBLE_EQ(t1, t7);
}

TEST(ThreadPoolTest, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto this_thread = std::this_thread::get_id();
  std::vector<std::thread::id> seen(5);
  pool.parallel_for(5, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, this_thread);
}

// --- The dispatch contract: boundaries, caller-run chunk 0, errors --------

using Triple = std::tuple<std::size_t, std::size_t, std::size_t>;

/// A chunk body that records every (chunk, lo, hi) it ran and the thread
/// each chunk ran on.
class ChunkLog {
 public:
  void operator()(std::size_t c, std::size_t lo, std::size_t hi) {
    const std::lock_guard<std::mutex> lock(m_);
    seen_.emplace_back(c, lo, hi);
    thread_of_[c] = std::this_thread::get_id();
  }
  std::vector<Triple> sorted() {
    const std::lock_guard<std::mutex> lock(m_);
    std::sort(seen_.begin(), seen_.end());
    return seen_;
  }
  std::thread::id thread_of(std::size_t c) {
    const std::lock_guard<std::mutex> lock(m_);
    return thread_of_.at(c);
  }

 private:
  std::mutex m_;
  std::vector<Triple> seen_;
  std::map<std::size_t, std::thread::id> thread_of_;
};

/// parallel_chunks' boundaries: chunk t of T = min(size, n) covers
/// [t*n/T, (t+1)*n/T).
std::vector<Triple> equal_chunks(std::size_t n, std::size_t size) {
  const std::size_t t_count = std::min(size, n);
  std::vector<Triple> out;
  for (std::size_t t = 0; t < t_count; ++t) {
    out.emplace_back(t, t * n / t_count, (t + 1) * n / t_count);
  }
  return out;
}

/// parallel_weighted_chunks' boundaries: chunk t ends where the running
/// weight sum first reaches (t+1)/T of the total; empty ranges are dropped
/// and a zero total or a single chunk is one chunk of everything.
std::vector<Triple> weighted_chunks(std::span<const std::uint32_t> w,
                                    std::size_t size) {
  const std::size_t n = w.size();
  const std::size_t t_count = std::min(size, n);
  std::uint64_t total = 0;
  for (const std::uint32_t x : w) total += x;
  if (t_count <= 1 || total == 0) return {{0, 0, n}};
  std::vector<std::size_t> bounds{0};
  std::uint64_t cum = 0;
  std::size_t i = 0;
  for (std::size_t t = 0; t + 1 < t_count; ++t) {
    const std::uint64_t target = (t + 1) * total / t_count;
    while (i < n && cum < target) cum += w[i++];
    if (i > bounds.back()) bounds.push_back(i);
  }
  if (n > bounds.back()) bounds.push_back(n);
  std::vector<Triple> out;
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    out.emplace_back(c, bounds[c], bounds[c + 1]);
  }
  return out;
}

/// Skewed weights with zeros: nothing every 5th index, a hub every 7th.
std::uint32_t skewed_weight(std::size_t i) {
  if (i % 5 == 0) return 0;
  return i % 7 == 0 ? 40 : static_cast<std::uint32_t>(1 + i % 3);
}

TEST(ThreadPoolDispatchTest, ChunkTriplesFollowTheBoundaryFormulas) {
  for (std::size_t size = 1; size <= 5; ++size) {
    ThreadPool pool(size);
    for (const std::size_t n : {1u, 3u, 4u, 5u, 1000u}) {
      ChunkLog plain;
      pool.parallel_chunks(n, plain);
      EXPECT_EQ(plain.sorted(), equal_chunks(n, size))
          << "size " << size << ", n " << n;

      std::vector<std::uint32_t> w(n);
      for (std::size_t i = 0; i < n; ++i) w[i] = skewed_weight(i);
      ChunkLog weighted;
      pool.parallel_weighted_chunks(w, weighted);
      EXPECT_EQ(weighted.sorted(), weighted_chunks(w, size))
          << "weighted, size " << size << ", n " << n;
    }
  }
}

TEST(ThreadPoolDispatchTest, ChunkZeroRunsOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  ChunkLog plain;
  pool.parallel_chunks(100, plain);
  ChunkLog weighted;
  pool.parallel_weighted_chunks(std::vector<std::uint32_t>(100, 1), weighted);
  for (ChunkLog* log : {&plain, &weighted}) {
    EXPECT_EQ(log->thread_of(0), caller);
    for (std::size_t c = 1; c < 4; ++c) EXPECT_NE(log->thread_of(c), caller);
  }
}

/// Dispatch 4 chunks; chunk `thrower` throws at once, the others finish
/// late.  The rethrow must come after every other chunk has finished.
void expect_rethrow_after_all_chunks(std::size_t thrower) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  try {
    pool.parallel_chunks(4, [&](std::size_t c, std::size_t, std::size_t) {
      if (c == thrower) throw std::runtime_error("chunk failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "no exception from chunk " << thrower;
  } catch (const std::runtime_error&) {
    EXPECT_EQ(finished.load(), 3) << "thrown by chunk " << thrower;
  }
}

TEST(ThreadPoolDispatchTest, ChunkZeroExceptionHeldUntilAllChunksFinish) {
  expect_rethrow_after_all_chunks(0);
}

TEST(ThreadPoolDispatchTest, WorkerChunkExceptionHeldUntilAllChunksFinish) {
  expect_rethrow_after_all_chunks(2);
}

// A dispatch from one of the pool's own workers runs inline: with every
// worker nesting one, waiting for free workers would deadlock.
TEST(ThreadPoolDispatchTest, NestedDispatchFromOwnWorkerRunsInline) {
  ThreadPool pool(4);
  std::thread::id task_thread;
  ChunkLog nested;
  pool.submit([&] {
    task_thread = std::this_thread::get_id();
    EXPECT_EQ(ThreadPool::worker_pool(), &pool);
    pool.parallel_chunks(4, nested);
  });
  pool.wait_idle();
  EXPECT_EQ(nested.sorted(), equal_chunks(4, 4));
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(nested.thread_of(c), task_thread);
  }
  EXPECT_EQ(ThreadPool::worker_pool(), nullptr);
}

// While the caller runs chunk 0 beside the workers' chunks it counts as one
// of the pool's workers: worker_pool() names the pool and fan_out_pool()
// keeps library code inline.  Once the dispatch returns the caller is
// outside every pool again.
TEST(ThreadPoolDispatchTest, CallerCountsAsWorkerWhileRunningChunkZero) {
  ThreadPool pool(2);
  ThreadPool* seen = nullptr;
  ThreadPool* fan_out = &pool;
  pool.parallel_chunks(2, [&](std::size_t c, std::size_t, std::size_t) {
    if (c == 0) {
      seen = ThreadPool::worker_pool();
      fan_out = fan_out_pool();
    }
  });
  EXPECT_EQ(seen, &pool);
  EXPECT_EQ(fan_out, nullptr);
  EXPECT_EQ(ThreadPool::worker_pool(), nullptr);
  if (default_pool().size() > 1) {
    EXPECT_EQ(fan_out_pool(), &default_pool());
  }
}

// A library call that fans out on its own (here a ~5700-node
// DiskGraph::build) runs inline when made from chunk 0: the dispatch's own
// chunk 1 is the only task any pool runs.
TEST(ThreadPoolDispatchTest, LibraryCallFromChunkZeroStaysInline) {
  if (!obs::kTelemetryEnabled || default_pool().size() < 2) {
    GTEST_SKIP() << "needs pool telemetry and a multi-worker default pool";
  }
  net::DeploymentParams p;
  p.model = net::RadiusModel::kUniform;
  p.target_avg_degree = 36.8;
  p.side = 30.0;  // the paper's density over 5.76x its area
  Xoshiro256 rng(5);
  const std::vector<net::Node> nodes = net::generate_deployment(p, rng);
  ThreadPool pool(2);
  const auto tasks = [&pool] {
    pool.wait_idle();
    return test::pool_tasks();
  };

  std::uint64_t before = tasks();
  const net::DiskGraph top = net::DiskGraph::build(nodes);
  ASSERT_GT(tasks() - before, 0u)
      << "a top-level build must fan out, or this test proves nothing";

  before = tasks();
  std::size_t edges = 0;
  pool.parallel_chunks(2, [&](std::size_t c, std::size_t, std::size_t) {
    if (c == 0) edges = net::DiskGraph::build(nodes).edge_count();
  });
  EXPECT_EQ(tasks() - before, 1u);
  EXPECT_EQ(edges, top.edge_count());
}

// MLDCS_THREADS parsing for default_pool() sizing: 0 means "no override".
TEST(ThreadOverrideTest, UnsetOrEmptyMeansNoOverride) {
  EXPECT_EQ(detail::thread_override(nullptr, 8), 0u);
  EXPECT_EQ(detail::thread_override("", 8), 0u);
}

TEST(ThreadOverrideTest, ValidValueClampedToHardware) {
  EXPECT_EQ(detail::thread_override("1", 8), 1u);
  EXPECT_EQ(detail::thread_override("4", 8), 4u);
  EXPECT_EQ(detail::thread_override("8", 8), 8u);
  EXPECT_EQ(detail::thread_override("64", 8), 8u);  // clamp, not reject
}

TEST(ThreadOverrideTest, GarbageAndNonPositiveIgnored) {
  EXPECT_EQ(detail::thread_override("abc", 8), 0u);
  EXPECT_EQ(detail::thread_override("8abc", 8), 0u);
  EXPECT_EQ(detail::thread_override("-2", 8), 0u);
  EXPECT_EQ(detail::thread_override("3.5", 8), 0u);
  EXPECT_EQ(detail::thread_override(" 4", 8), 0u);
  EXPECT_EQ(detail::thread_override("0", 8), 0u);
}

TEST(ThreadOverrideTest, HugeValueClampsInsteadOfOverflowing) {
  EXPECT_EQ(detail::thread_override("99999999999999999999999999", 8), 8u);
}

TEST(ThreadOverrideTest, ZeroHardwareConcurrencyStillYieldsOneWorker) {
  // hardware_concurrency() may legitimately report 0 ("unknown").
  EXPECT_EQ(detail::thread_override("4", 0), 1u);
}

}  // namespace
}  // namespace mldcs::sim
