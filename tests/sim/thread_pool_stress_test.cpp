// ThreadSanitizer-targeted stress tests for the persistent thread pool:
// concurrent external dispatchers sharing one pool's task ring, and
// repeated dispatches on the same workers.  Run these under the `tsan`
// CMake preset; they are also fast enough for every tier-1 run.

#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace mldcs::sim {
namespace {

// Several threads dispatch on one pool at once: their tasks share the ring
// and the workers, and each dispatch still returns only after its own
// blocks have all run.
TEST(ThreadPoolStressTest, ConcurrentExternalSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kSubmitters = 4;
  constexpr int kDispatchesEach = 100;
  constexpr std::size_t kBlocks = 8;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kDispatchesEach; ++i) {
        std::atomic<std::size_t> mine{0};
        pool.parallel_for(kBlocks, [&](std::size_t) {
          mine.fetch_add(1, std::memory_order_relaxed);
          count.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(mine.load(), kBlocks);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(count.load(), kSubmitters * kDispatchesEach *
                              static_cast<int>(kBlocks));
}

// A parallel_for visits every index once while another thread's
// dispatches keep the same workers and ring busy.
TEST(ThreadPoolStressTest, ParallelForConcurrentWithSubmitTraffic) {
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<int> side{0};
  std::thread traffic([&] {
    while (!stop.load()) {
      pool.parallel_for(16, [&side](std::size_t) {
        side.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> visits(200);
    pool.parallel_for(200, [&visits](std::size_t i) { ++visits[i]; });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
  stop = true;
  traffic.join();
  EXPECT_EQ(side.load() % 16, 0);
}

TEST(ThreadPoolStressTest, RepeatedParallelForReusesWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(64, [&sum](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64L * 63L / 2L);
  }
}

}  // namespace
}  // namespace mldcs::sim
