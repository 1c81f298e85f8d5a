// Tests for the thread pool: parallel_for, parallel_chunks and the
// self-scheduled parallel_blocks.

#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "net/disk_graph.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/rng.hpp"
#include "support/alloc_guard.hpp"
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

TEST(ThreadPoolDispatchTest, ChunkTriplesFollowTheBoundaryFormulas) {
  for (std::size_t size = 1; size <= 5; ++size) {
    ThreadPool pool(size);
    for (const std::size_t n : {1u, 3u, 4u, 5u, 1000u}) {
      ChunkLog plain;
      pool.parallel_chunks(n, plain);
      EXPECT_EQ(plain.sorted(), equal_chunks(n, size))
          << "size " << size << ", n " << n;
    }
  }
}

TEST(ThreadPoolDispatchTest, ChunkZeroRunsOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  ChunkLog plain;
  pool.parallel_chunks(100, plain);
  EXPECT_EQ(plain.thread_of(0), caller);
  for (std::size_t c = 1; c < 4; ++c) EXPECT_NE(plain.thread_of(c), caller);
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
// A warmed-up pool dispatches without allocating: a dispatch's tasks fit
// std::function's inline buffer, and the task queue keeps the capacity of
// its deepest backlog.
TEST(ThreadPoolDispatchTest, WarmedUpDispatchesAllocateNothing) {
  if (!test::alloc_probe_active()) GTEST_SKIP() << "allocator owned by ASan";
  ThreadPool pool(4);
  std::vector<std::uint64_t> sums(pool.size(), 0);
  const auto dispatch = [&] {
    pool.parallel_blocks(64, 4, [&](std::size_t slot, std::size_t lo,
                                    std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) sums[slot] += i;
    });
  };
  test::start_workers(pool);
  for (int i = 0; i < 64; ++i) dispatch();

  const test::AllocGuard guard;
  for (int i = 0; i < 1600; ++i) dispatch();
  EXPECT_EQ(guard.count(), 0u) << "1600 dispatches of 3 pool tasks each";
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), std::uint64_t{0}),
            1664u * (63u * 64u / 2u));
}

// The queue keeps FIFO order while it wraps and regrows: 10 tasks move its
// head, then 40 queue up behind a task that holds the pool's one worker.
TEST(ThreadPoolDispatchTest, QueueRunsTasksInSubmitOrderAcrossRegrowth) {
  ThreadPool pool(1);
  std::vector<int> order;  // written by the pool's one worker only
  const auto submit_range = [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      pool.submit([&order, i] { order.push_back(i); });
    }
  };
  submit_range(0, 10);
  pool.wait_idle();
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.submit([&] {
    started = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  submit_range(10, 50);
  EXPECT_EQ(pool.queue_depth(), 40u);
  release = true;
  pool.wait_idle();
  std::vector<int> want(50);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

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

// --- parallel_blocks: self-scheduled blocks, slots, errors ----------------

/// One parallel_blocks call's record: every (slot, lo, hi) it ran, in the
/// order it ran them, and the thread each ran on.
class BlockLog {
 public:
  struct Entry {
    std::size_t slot, lo, hi;
    std::thread::id thread;
  };
  void operator()(std::size_t slot, std::size_t lo, std::size_t hi) {
    const std::lock_guard<std::mutex> lock(m_);
    entries_.push_back({slot, lo, hi, std::this_thread::get_id()});
  }
  std::vector<Entry> entries() {
    const std::lock_guard<std::mutex> lock(m_);
    return entries_;
  }

 private:
  std::mutex m_;
  std::vector<Entry> entries_;
};

/// Every block of [0, n) ran exactly once, with the boundaries (n, block)
/// alone define: [b*block, min(n, (b+1)*block)).
void expect_every_block_once(const std::vector<BlockLog::Entry>& log,
                             std::size_t n, std::size_t block) {
  std::vector<int> visits(n, 0);
  for (const BlockLog::Entry& e : log) {
    ASSERT_EQ(e.lo % block, 0u) << "lo " << e.lo;
    ASSERT_EQ(e.hi, std::min(n, e.lo + block)) << "lo " << e.lo;
    for (std::size_t i = e.lo; i < e.hi; ++i) ++visits[i];
  }
  EXPECT_EQ(log.size(), n == 0 ? 0 : (n - 1) / block + 1);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i << " of " << n;
  }
}

TEST(ThreadPoolBlocksTest, EveryIndexVisitedExactlyOnce) {
  for (std::size_t size = 1; size <= 4; ++size) {
    ThreadPool pool(size);
    for (const std::size_t block : {1u, 3u, 8u}) {
      for (const std::size_t n :
           {std::size_t{0}, std::size_t{1}, block - 1, block, block + 1,
            10 * size * block}) {
        BlockLog log;
        pool.parallel_blocks(n, block, log);
        expect_every_block_once(log.entries(), n, block);
        if (HasFatalFailure()) {
          ADD_FAILURE() << "size " << size << ", block " << block << ", n "
                        << n;
          return;
        }
      }
    }
  }
}

TEST(ThreadPoolBlocksTest, SlotsAreDenseAndTheCallerIsSlotZero) {
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t size = 1; size <= 4; ++size) {
    ThreadPool pool(size);
    for (const std::size_t blocks : {1u, 2u, 3u, 40u}) {
      BlockLog log;
      pool.parallel_blocks(blocks * 4, 4, log);
      const std::vector<BlockLog::Entry> entries = log.entries();
      expect_every_block_once(entries, blocks * 4, 4);
      // A slot is one participant: one thread for the whole call, and no
      // two slots share a thread.
      std::map<std::size_t, std::thread::id> thread_of;
      for (const BlockLog::Entry& e : entries) {
        EXPECT_LT(e.slot, std::min(size, blocks))
            << "size " << size << ", blocks " << blocks;
        const auto it = thread_of.emplace(e.slot, e.thread).first;
        EXPECT_EQ(it->second, e.thread) << "slot " << e.slot;
        EXPECT_EQ(e.slot == 0, e.thread == caller) << "slot " << e.slot;
      }
      std::set<std::thread::id> threads;
      for (const auto& entry : thread_of) threads.insert(entry.second);
      EXPECT_EQ(threads.size(), thread_of.size());
    }
  }
}

// A call from one of the pool's own workers runs every block inline, in
// block order, as slot 0: waiting for workers that may all be blocked in
// the same call would deadlock.
TEST(ThreadPoolBlocksTest, NestedCallFromOwnWorkerRunsInlineInOrder) {
  ThreadPool pool(4);
  std::thread::id task_thread;
  BlockLog nested;
  pool.submit([&] {
    task_thread = std::this_thread::get_id();
    pool.parallel_blocks(50, 4, nested);
  });
  pool.wait_idle();
  const std::vector<BlockLog::Entry> entries = nested.entries();
  ASSERT_EQ(entries.size(), 13u);
  for (std::size_t b = 0; b < entries.size(); ++b) {
    EXPECT_EQ(entries[b].slot, 0u);
    EXPECT_EQ(entries[b].lo, 4 * b);
    EXPECT_EQ(entries[b].hi, std::min<std::size_t>(50, 4 * b + 4));
    EXPECT_EQ(entries[b].thread, task_thread);
  }
}

// Slot 1 starts late twice over: first its task waits behind two sleeping
// tasks on the pool's two workers (it has claimed nothing yet), then it
// sleeps inside the first block it claims while the caller works through
// 1 ms blocks.  The caller keeps claiming meanwhile, and every block
// still runs once.
TEST(ThreadPoolBlocksTest, CoverageHoldsWhenSlotOneSleeps) {
  ThreadPool pool(2);
  for (int i = 0; i < 2; ++i) {
    pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(30)); });
  }
  BlockLog late;
  pool.parallel_blocks(400, 4, late);
  expect_every_block_once(late.entries(), 400, 4);
  pool.wait_idle();

  BlockLog sleepy;
  std::atomic<bool> slept{false};
  pool.parallel_blocks(40, 1, [&](std::size_t slot, std::size_t lo,
                                  std::size_t hi) {
    if (slot == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (slot == 1 && !slept.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    sleepy(slot, lo, hi);
  });
  expect_every_block_once(sleepy.entries(), 40, 1);
}

/// 40 blocks of 5 ms on 4 participants; block `thrower` throws at once.
/// The rethrow must wait until every participant has stopped, and the
/// participants that did not throw finish every other block.
void expect_rethrow_after_all_participants(std::size_t thrower) {
  ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  try {
    pool.parallel_blocks(40, 1, [&](std::size_t, std::size_t lo,
                                    std::size_t) {
      if (lo == thrower) throw std::runtime_error("block failed");
      ++running;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++finished;
      --running;
    });
    ADD_FAILURE() << "no exception from block " << thrower;
  } catch (const std::runtime_error&) {
    EXPECT_EQ(running.load(), 0) << "thrown by block " << thrower;
    EXPECT_EQ(finished.load(), 39) << "thrown by block " << thrower;
  }
}

TEST(ThreadPoolBlocksTest, FirstBlockExceptionHeldUntilAllParticipantsStop) {
  expect_rethrow_after_all_participants(0);
}

TEST(ThreadPoolBlocksTest, LaterBlockExceptionHeldUntilAllParticipantsStop) {
  expect_rethrow_after_all_participants(17);
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
