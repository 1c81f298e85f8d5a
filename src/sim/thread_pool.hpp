#pragma once

/// \file thread_pool.hpp
/// A fixed-size persistent worker pool for fork-join loops: one dispatch,
/// parallel_blocks, and parallel_for, its per-index form.
///
/// The paper's work is fork-join by construction: a relay's forwarding set
/// depends only on its own 1-hop disk set, and the Chapter 5 sweeps run
/// independent trials.  A dispatch is self-scheduled: its block boundaries
/// depend only on (n, block), but which participant (slot) runs a block is
/// decided at run time by one shared cursor, so a slow core claims fewer
/// blocks instead of holding up the rest.  The determinism rule is on the
/// caller: keep every output keyed by index or by block, never by slot,
/// and results are bitwise identical at any thread count and under any
/// schedule.  The calling thread is slot 0 and hands only the other slots
/// to the workers, so a pool of size() n runs n - 1 worker threads, and a
/// dispatch never waits for one more worker to wake than it has blocks to
/// hand out; while it runs slot 0 the caller counts as one of the pool's
/// workers (worker_pool()).  A dispatch's tasks reach the
/// workers through a FIFO ring that only grows, so once the ring has
/// reached its deepest level a dispatch allocates nothing.
///
/// Concurrency contract (exercised under ThreadSanitizer by
/// tests/sim/thread_pool_stress_test.cpp):
///  - parallel_blocks() / parallel_for() may be called from any thread, by
///    several threads at once on one pool, and block the caller until every
///    participant has stopped.
///  - Called from a thread that works for this pool (see worker_pool()) they
///    run every block inline, in block order, as slot 0: a nested dispatch
///    cannot deadlock waiting for workers that are all blocked in it.
///  - The destructor joins the workers; no dispatch may be in flight.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/annotations.hpp"

namespace mldcs::sim {

/// Fixed-size persistent thread pool: a dispatch's caller plus size() - 1
/// worker threads, which start lazily on first use.
class ThreadPool {
 public:
  /// `threads` participants per dispatch (so `threads` - 1 worker
  /// threads); 0 selects hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_; }

  /// Run `body(i)` for every i in [0, n): parallel_blocks with one index
  /// per block, for bodies (a trial, a shard) heavy enough that one claim
  /// per index costs nothing.  Same contract as parallel_blocks.
  template <typename F>
  void parallel_for(std::size_t n, F&& body) {
    parallel_blocks(n, 1, [&body](std::size_t /*slot*/, std::size_t i,
                                  std::size_t /*hi*/) { body(i); });
  }

  /// Run `body(slot, lo, hi)` once for every block
  /// [b*block, min(n, (b+1)*block)) of [0, n).  Block boundaries depend
  /// only on (n, block).  The caller (slot 0) and up to size()-1 workers
  /// (slots 1..) claim blocks in ascending order from one shared cursor
  /// until none is left, so a participant on a slow core simply claims
  /// fewer blocks.  `slot` is dense in [0, min(size(), blocks)) and names
  /// the participant, not the work: a slot runs on one thread for the whole
  /// call and may run any number of blocks (possibly none), so it is the
  /// hook for per-participant scratch, while every output must be keyed by
  /// index or by block.  Blocks until every participant has stopped; a body
  /// exception stops its participant and is rethrown after that (first one
  /// wins).  Runs every block inline, in order, as slot 0, when there is
  /// one block, size() <= 1, or the caller is one of this pool's workers.
  /// `block` = 0 is read as 1.
  template <typename F>
  MLDCS_ALLOC_OK void parallel_blocks(std::size_t n, std::size_t block,
                                      F&& body) {
    if (n == 0) return;
    block = std::max<std::size_t>(block, 1);
    const std::size_t blocks = (n - 1) / block + 1;
    // One claim is one relaxed fetch_add: the blocks' writes reach the
    // caller through the dispatch's completion latch, not the cursor.
    alignas(64) std::atomic<std::size_t> cursor{0};
    const auto claim_loop = [&](std::size_t slot) {
      for (;;) {
        const std::size_t b = cursor.fetch_add(1, std::memory_order_relaxed);
        if (b >= blocks) return;
        const std::size_t lo = b * block;
        body(slot, lo, n - lo <= block ? n : lo + block);
      }
    };
    const std::size_t slots = std::min(workers_, blocks);
    if (slots <= 1 || worker_pool() == this) {
      claim_loop(0);
      return;
    }
    Dispatch job(&run_loop<decltype(claim_loop)>, &claim_loop, slots - 1);
    dispatch(job, slots - 1);
  }

  /// The pool the calling thread works for: the pool whose worker it is,
  /// or — while a caller outside every pool runs slot 0 of a dispatch —
  /// the dispatching pool.  nullptr on any other thread (the main thread
  /// between dispatches).  Code that would dispatch to a *different* pool
  /// checks it too (through fan_out_pool()): a thread that blocks on
  /// another pool's blocks holds its own pool's capacity hostage.
  [[nodiscard]] static ThreadPool* worker_pool() noexcept;

 private:
  /// One dispatch's shared state, on the caller's stack: its claim loop,
  /// type-erased to a function pointer, and the latch the caller waits on.
  /// A queued task is {dispatch, slot}, so handing out a slot allocates
  /// nothing.
  struct Dispatch {
    Dispatch(void (*runner)(const void*, std::size_t), const void* body,
             std::size_t tasks)
        : run(runner), loop(body), remaining(tasks) {}

    void (*run)(const void*, std::size_t);  // run_loop<L>(loop, slot)
    const void* loop;
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining;     // guarded by m: worker slots still running
    std::exception_ptr error;  // guarded by m: the first slot exception
  };

  template <typename L>
  static void run_loop(const void* loop, std::size_t slot) {
    (*static_cast<const L*>(loop))(slot);
  }

  /// One queued worker slot of a dispatch.
  struct Task {
    Dispatch* job;
    std::size_t slot;
  };

  /// The workers' queue: a FIFO ring of tasks over a buffer that only
  /// grows, so a ring that has reached its deepest level allocates nothing.
  /// The names stay clear of push/pop: mldcs-analyze links calls by name.
  class TaskRing {
   public:
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    void enqueue(Task task) {
      if (count_ == slots_.size()) grow();
      slots_[(head_ + count_) % slots_.size()] = task;
      ++count_;
    }
    /// The oldest task; the ring must not be empty.
    Task dequeue() noexcept {
      const Task task = slots_[head_];
      head_ = (head_ + 1) % slots_.size();
      --count_;
      return task;
    }

   private:
    MLDCS_ALLOC_OK void grow();  // double the buffer, oldest task first

    std::vector<Task> slots_;
    std::size_t head_ = 0;   // the oldest task's slot
    std::size_t count_ = 0;  // queued tasks
  };

  /// Queue slots 1..tasks of `job`, run slot 0 on the calling thread, wait
  /// for the workers' slots, then rethrow the first exception a slot threw.
  MLDCS_ALLOC_OK void dispatch(Dispatch& job, std::size_t tasks);
  /// Run one slot; its exception is recorded in `job`, not thrown.
  static void run_slot(Dispatch& job, std::size_t slot) noexcept;
  static void set_worker_pool(ThreadPool* pool) noexcept;
  void ensure_started();  // spawn workers on first dispatch; no lock held
  void worker_loop();

  std::size_t workers_;

  std::mutex mutex_;
  std::condition_variable task_cv_;   // workers: ring non-empty or stopping
  TaskRing queue_;                    // guarded by mutex_
  std::vector<std::thread> threads_;  // guarded by mutex_
  bool stopping_ = false;             // guarded by mutex_
};

/// Process-wide shared pool, created on first use, destroyed at exit.  The
/// hook for steady-state loops — mobility maintenance, repeated sweeps,
/// the Chapter 5 figure benches — that should reuse one set of workers
/// across steps instead of paying pool construction per step.  Same
/// concurrency contract as any ThreadPool; callers must not rely on
/// exclusive use.
///
/// The library also dispatches to it on its own, through fan_out_pool():
/// a whole-plane `net::DynamicDiskGraph::apply` with many movers (its
/// per-mover diff), a `net::DiskGraph::build` of
/// `net::DiskGraph::kParallelBuildNodes` (256) or more nodes — the paper's
/// ~1000-node graphs included — (its count and fill passes), and a skyline
/// `bcast::simulate_broadcast` of 32 or more nodes (every transmitter's
/// forwarding set, one closure pass).  Those stages are bounded by this pool's
/// size, not by any pool the caller hands to a cache or a sweep — so
/// `perf_suite --threads` does not bound them, and `MLDCS_THREADS` does.
///
/// Size: hardware_concurrency, unless the `MLDCS_THREADS` environment
/// variable names a positive integer — then that, clamped to
/// hardware_concurrency.  One env var makes CI and bench runs reproducible
/// without plumbing --threads through every binary; unparsable or
/// non-positive values are ignored.
ThreadPool& default_pool();

/// The one fan-out rule for library code: the pool an internal parallel
/// stage may use here.  default_pool() when the caller is outside every
/// pool dispatch and that pool has more than one worker; nullptr (run
/// inline) otherwise.  Inside a dispatch — on a pool worker, or while the
/// caller runs slot 0 — the sibling slots already hold the cores, so a
/// nested build, apply or broadcast runs inline instead of oversubscribing
/// them.  The stage's output must not depend on which way it ran.
[[nodiscard]] ThreadPool* fan_out_pool();

namespace detail {
/// MLDCS_THREADS parsing, exposed for tests: returns the worker count for
/// the override text `text` (nullptr/empty/invalid/non-positive -> 0, i.e.
/// "no override, use hardware_concurrency"), clamped to `hw`.
[[nodiscard]] std::size_t thread_override(const char* text,
                                          std::size_t hw) noexcept;
}  // namespace detail

}  // namespace mldcs::sim
