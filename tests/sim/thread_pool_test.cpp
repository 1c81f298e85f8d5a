// Tests for the thread pool: the self-scheduled parallel_blocks dispatch
// and parallel_for, its per-index form.

#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/disk_graph.hpp"
#include "net/topology.hpp"
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

/// Thread ids of this process: the entries of /proc/self/task.
std::set<std::string> task_ids() {
  std::set<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

// The caller runs slot 0 of every dispatch, so a pool of size() n starts
// n - 1 worker threads, and start_workers reaches every one of them.  New
// thread ids are counted, so a thread of an earlier test that is still
// exiting does not count.  A sanitizer runtime starts its helper thread
// with the process's first thread, so one is started first.
TEST(ThreadPoolTest, PoolOfFourStartsThreeWorkerThreads) {
  if (!std::filesystem::is_directory("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  std::thread([] {}).join();
  const std::set<std::string> before = task_ids();
  ThreadPool pool(4);
  test::start_workers(pool);
  std::size_t started = 0;
  for (const std::string& id : task_ids()) started += before.count(id) == 0;
  EXPECT_EQ(started, 3u);
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
    ThreadPool pool(threads);
    pool.parallel_for(
        500, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; });
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

// --- The dispatch contract: caller-run slot 0, queue, nesting, errors -----

/// A slot body that records the thread each slot ran on.
class SlotThreads {
 public:
  void operator()(std::size_t slot) {
    const std::lock_guard<std::mutex> lock(m_);
    thread_of_[slot] = std::this_thread::get_id();
  }
  std::map<std::size_t, std::thread::id> threads() {
    const std::lock_guard<std::mutex> lock(m_);
    return thread_of_;
  }

 private:
  std::mutex m_;
  std::map<std::size_t, std::thread::id> thread_of_;
};

/// Runs one block per slot of `pool`: each block waits until every slot
/// has arrived, so no participant can claim a second block and every slot
/// runs exactly one.
template <typename F>
void one_block_per_slot(ThreadPool& pool, F&& per_slot) {
  std::atomic<std::size_t> arrived{0};
  pool.parallel_blocks(pool.size(), 1,
                       [&](std::size_t slot, std::size_t, std::size_t) {
                         arrived.fetch_add(1);
                         while (arrived.load() < pool.size()) {
                           std::this_thread::yield();
                         }
                         per_slot(slot);
                       });
}

// Slot 0 — chunk 0 in these tests' names — is the calling thread; the
// other slots run on distinct workers, and a dispatch of size() blocks
// that wait for each other uses every one of them.
TEST(ThreadPoolDispatchTest, ChunkZeroRunsOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  SlotThreads seen;
  one_block_per_slot(pool, seen);
  const std::map<std::size_t, std::thread::id> threads = seen.threads();
  ASSERT_EQ(threads.size(), 4u);
  EXPECT_EQ(threads.at(0), caller);
  std::set<std::thread::id> distinct;
  for (const auto& entry : threads) distinct.insert(entry.second);
  EXPECT_EQ(distinct.size(), 4u);
}

/// Four slots, one block each; slot `thrower` throws at once, the others
/// finish late.  The rethrow must come after every other slot has finished.
void expect_rethrow_after_all_slots(std::size_t thrower) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  try {
    one_block_per_slot(pool, [&](std::size_t slot) {
      if (slot == thrower) throw std::runtime_error("slot failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "no exception from slot " << thrower;
  } catch (const std::runtime_error&) {
    EXPECT_EQ(finished.load(), 3) << "thrown by slot " << thrower;
  }
}

TEST(ThreadPoolDispatchTest, ChunkZeroExceptionHeldUntilAllChunksFinish) {
  expect_rethrow_after_all_slots(0);
}

TEST(ThreadPoolDispatchTest, WorkerChunkExceptionHeldUntilAllChunksFinish) {
  expect_rethrow_after_all_slots(2);
}

// A warmed-up pool dispatches without allocating: a dispatch's tasks are
// {dispatch, slot} pairs, and the task ring keeps the capacity of its
// deepest backlog.
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

/// A one-worker backlog on a pool of size 3 (two workers): worker A is
/// parked inside a dispatch until the test ends, and worker B inside a
/// second one until release_b().  Dispatches made meanwhile (each hands out
/// one task) wait in the ring, and B alone drains them once released, in
/// ring order.
class ParkedWorkers {
 public:
  explicit ParkedWorkers(ThreadPool& pool) {
    a_.start(pool);
    b_.start(pool);
  }
  ~ParkedWorkers() {
    b_.stop();
    a_.stop();
  }
  void release_b() { b_.stop(); }

 private:
  /// A thread whose two-block dispatch keeps a worker in slot 1 until
  /// stop(); start() returns once that worker is parked.
  struct Parked {
    std::atomic<bool> hold{true};
    std::atomic<bool> parked{false};
    std::thread thread;

    void start(ThreadPool& pool) {
      thread = std::thread([this, &pool] {
        pool.parallel_blocks(2, 1, [this](std::size_t slot, std::size_t,
                                          std::size_t) {
          if (slot == 0) {
            // Hold one block until the worker has claimed the other.
            while (!parked.load()) std::this_thread::yield();
            return;
          }
          parked = true;
          while (hold.load()) std::this_thread::yield();
        });
      });
      while (!parked.load()) std::this_thread::yield();
    }
    void stop() {
      if (!thread.joinable()) return;
      hold = false;
      thread.join();
    }
  };

  Parked a_;
  Parked b_;
};

// The ring keeps FIFO order while it wraps and regrows: 10 dispatches of
// two tasks and the two parked ones move its head to slot 6 of 16, then 40
// dispatches from 40 threads queue one task each behind the parked
// workers, so the backlog wraps at its 11th task and the ring regrows at
// its 17th and 33rd.  Each dispatcher holds block 0 until its worker slot
// has run block 1, which records the dispatcher's index.
TEST(ThreadPoolDispatchTest, QueueRunsTasksInSubmitOrderAcrossRegrowth) {
  ThreadPool pool(3);
  for (int i = 0; i < 10; ++i) {
    one_block_per_slot(pool, [](std::size_t) {});
  }
  std::vector<int> order;  // written by worker B only
  std::atomic<int> queued{0};
  std::vector<std::thread> dispatchers;
  {
    ParkedWorkers parked(pool);
    for (int i = 0; i < 40; ++i) {
      dispatchers.emplace_back([&pool, &order, &queued, i] {
        std::atomic<bool> ran{false};
        pool.parallel_blocks(2, 1, [&](std::size_t slot, std::size_t,
                                       std::size_t) {
          if (slot == 0) {
            // The dispatch queued its task before slot 0 started.
            queued.fetch_add(1);
            while (!ran.load()) std::this_thread::yield();
            return;
          }
          order.push_back(i);
          ran = true;
        });
      });
      while (queued.load() <= i) std::this_thread::yield();
    }
    parked.release_b();
    for (std::thread& t : dispatchers) t.join();
  }
  std::vector<int> want(40);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

// A dispatch nested in any slot, the caller's or a worker's, runs inline on
// that thread as slot 0: with every slot nesting one, waiting for free
// workers would deadlock.
TEST(ThreadPoolDispatchTest, NestedDispatchFromOwnWorkerRunsInline) {
  ThreadPool pool(4);
  std::vector<std::thread::id> outer_thread(4);
  std::vector<std::vector<std::thread::id>> inner_thread(
      4, std::vector<std::thread::id>(4));
  std::vector<std::vector<std::size_t>> inner_slot(
      4, std::vector<std::size_t>(4, 99));
  one_block_per_slot(pool, [&](std::size_t slot) {
    outer_thread[slot] = std::this_thread::get_id();
    EXPECT_EQ(ThreadPool::worker_pool(), &pool);
    pool.parallel_blocks(4, 1, [&](std::size_t s, std::size_t lo,
                                   std::size_t) {
      inner_thread[slot][lo] = std::this_thread::get_id();
      inner_slot[slot][lo] = s;
    });
  });
  for (std::size_t slot = 0; slot < 4; ++slot) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(inner_thread[slot][i], outer_thread[slot]);
      EXPECT_EQ(inner_slot[slot][i], 0u);
    }
  }
  EXPECT_EQ(ThreadPool::worker_pool(), nullptr);
}

// While the caller runs slot 0 beside the workers' slots it counts as one
// of the pool's workers: worker_pool() names the pool and fan_out_pool()
// keeps library code inline.  Once the dispatch returns the caller is
// outside every pool again.
TEST(ThreadPoolDispatchTest, CallerCountsAsWorkerWhileRunningChunkZero) {
  ThreadPool pool(2);
  ThreadPool* seen = nullptr;
  ThreadPool* fan_out = &pool;
  one_block_per_slot(pool, [&](std::size_t slot) {
    if (slot == 0) {
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
// DiskGraph::build) runs inline when made from slot 0: the dispatch's own
// slot 1 is the only task any pool runs.
TEST(ThreadPoolDispatchTest, LibraryCallFromChunkZeroStaysInline) {
  if (default_pool().size() < 2) {
    GTEST_SKIP() << "needs a multi-worker default pool";
  }
  net::DeploymentParams p;
  p.model = net::RadiusModel::kUniform;
  p.target_avg_degree = 36.8;
  p.side = 30.0;  // the paper's density over 5.76x its area
  Xoshiro256 rng(5);
  const std::vector<net::Node> nodes = net::generate_deployment(p, rng);
  ThreadPool pool(2);

  std::uint64_t before = test::pool_tasks();
  const net::DiskGraph top = net::DiskGraph::build(nodes);
  ASSERT_GT(test::pool_tasks() - before, 0u)
      << "a top-level build must fan out, or this test proves nothing";

  before = test::pool_tasks();
  std::size_t edges = 0;
  one_block_per_slot(pool, [&](std::size_t slot) {
    if (slot == 0) edges = net::DiskGraph::build(nodes).edge_count();
  });
  EXPECT_EQ(test::pool_tasks() - before, 1u);
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
  std::thread::id worker_thread;
  BlockLog nested;
  one_block_per_slot(pool, [&](std::size_t slot) {
    if (slot != 1) return;
    worker_thread = std::this_thread::get_id();
    pool.parallel_blocks(50, 4, nested);
  });
  const std::vector<BlockLog::Entry> entries = nested.entries();
  ASSERT_EQ(entries.size(), 13u);
  for (std::size_t b = 0; b < entries.size(); ++b) {
    EXPECT_EQ(entries[b].slot, 0u);
    EXPECT_EQ(entries[b].lo, 4 * b);
    EXPECT_EQ(entries[b].hi, std::min<std::size_t>(50, 4 * b + 4));
    EXPECT_EQ(entries[b].thread, worker_thread);
  }
}

// Slot 1 starts late twice over: first its task waits in the ring behind
// two other threads' dispatches, whose slots hold the pool's two workers
// for 30 ms (it has claimed nothing yet), then it sleeps inside the first
// block it claims while the caller works through 1 ms blocks.  The caller
// keeps claiming meanwhile, and every block still runs once.
TEST(ThreadPoolBlocksTest, CoverageHoldsWhenSlotOneSleeps) {
  ThreadPool pool(2);
  std::atomic<int> busy{0};
  std::vector<std::thread> others;
  for (int i = 0; i < 2; ++i) {
    others.emplace_back([&pool, &busy] {
      std::atomic<bool> claimed{false};
      pool.parallel_blocks(2, 1, [&](std::size_t slot, std::size_t,
                                     std::size_t) {
        if (slot == 0) {
          // Hold one block until this dispatch's worker has the other.
          while (!claimed.load()) std::this_thread::yield();
          return;
        }
        claimed = true;
        busy.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      });
    });
  }
  while (busy.load() < 2) std::this_thread::yield();
  BlockLog late;
  pool.parallel_blocks(400, 4, late);
  expect_every_block_once(late.entries(), 400, 4);
  for (std::thread& t : others) t.join();

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
