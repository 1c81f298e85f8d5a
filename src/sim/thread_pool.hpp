#pragma once

/// \file thread_pool.hpp
/// A fixed-size persistent worker pool: a task queue with submit/wait_idle
/// plus the deterministic parallel loops the sweeps use.
///
/// The Chapter 5 sweeps are embarrassingly parallel across (sweep point,
/// trial) pairs; per the HPC guides we keep parallelism explicit and
/// deterministic.  parallel_for and parallel_chunks deal work out in fixed
/// contiguous chunks (no work stealing, no shared RNG), so which thread
/// runs which index is a function of (n, size()) alone.  parallel_blocks
/// is the one self-scheduled loop: its block boundaries depend only on
/// (n, block), but which participant (slot) runs a block is decided at run
/// time by one shared cursor, so a slow core claims fewer blocks instead
/// of holding up the rest.  Its determinism rule is on the caller: keep
/// every output keyed by index or by block, never by slot, and results are
/// bitwise identical at any thread count and under any schedule.  The
/// calling thread runs chunk 0 (slot 0) itself and submits only the
/// others, so a dispatch never waits for one more worker to wake than it
/// has work to hand out; while it runs chunk 0 it counts as one of the
/// pool's workers (worker_pool()).  The queue side exists for the
/// ROADMAP's async/batched workloads: tasks may submit further tasks from
/// inside a worker, and destruction drains every queued task before joining
/// (verified under ThreadSanitizer by tests/sim/thread_pool_stress_test.cpp).
/// The queue is a FIFO ring that only grows, and a dispatch's tasks are
/// small enough for std::function to hold inline, so once the queue has
/// reached its deepest level a dispatch allocates nothing.
///
/// Concurrency contract:
///  - submit() is safe from any thread, including from inside a running
///    task.  Submitting after the destructor has begun (from outside a
///    task) is a caller bug.
///  - wait_idle() blocks until the queue is empty and no task is running,
///    then rethrows the first exception any submitted task threw since the
///    last wait_idle().
///  - parallel_for() / parallel_chunks() / parallel_blocks() block the
///    caller until every chunk or block has finished.  Called from a
///    thread that works for this pool (see worker_pool()) they run
///    everything inline, in index order, on that thread (same boundaries;
///    chunk indices as usual, every block as slot 0): a nested dispatch
///    cannot deadlock waiting for workers that are all blocked in it.
///  - The destructor finishes every queued task (including tasks those
///    tasks submit) before joining; exceptions from tasks drained during
///    destruction are swallowed.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/annotations.hpp"

namespace mldcs::sim {

/// Fixed-size persistent thread pool; workers start lazily on first use.
class ThreadPool {
 public:
  /// `threads` = 0 selects hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_; }

  /// Enqueue one task.  Safe from external threads and from inside tasks.
  /// Allocates when `task` is too large for std::function to hold inline
  /// (a dispatch's tasks never are) and when the queue reaches a new depth.
  MLDCS_ALLOC_OK void submit(std::function<void()> task);

  /// Block until every submitted task (transitively) has finished, then
  /// rethrow the first task exception recorded since the last wait_idle().
  void wait_idle();

  /// Tasks currently queued (not yet picked up by a worker).  Takes the
  /// queue mutex — an introspection read for pollers and dashboards, not
  /// for hot-path decisions.
  [[nodiscard]] std::size_t queue_depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// Run `body(i)` for every i in [0, n), partitioned into `size()`
  /// contiguous chunks executed concurrently (chunk 0 on the calling
  /// thread).  Blocks until all complete.  Exceptions thrown by `body` are
  /// rethrown once every chunk has finished (first one wins).  Runs inline
  /// on the calling thread when size() <= 1, n <= 1, or the caller is one
  /// of this pool's workers.
  ///
  /// Statically dispatched on the callable: the only type erasure is one
  /// task object per *chunk* (= per worker), never per index.
  template <typename F>
  void parallel_for(std::size_t n, F&& body) {
    parallel_chunks(n, [&body](std::size_t /*chunk*/, std::size_t lo,
                               std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }

  /// Chunk-level form: run `body(chunk, lo, hi)` for each of the <= size()
  /// contiguous chunks covering [0, n).  `chunk` is a dense index in
  /// [0, min(size(), n)) — the hook for per-thread scratch (workspaces,
  /// RNGs): chunk c runs entirely on one thread (chunk 0 on the caller).
  /// Same chunk boundaries as parallel_for (deterministic in (n, size())
  /// only).
  template <typename F>
  MLDCS_ALLOC_OK void parallel_chunks(std::size_t n, F&& body) {
    if (n == 0) return;
    // Static contiguous chunking: chunk c of T covers [c*n/T, (c+1)*n/T).
    const std::size_t chunks = std::min(workers_, n);
    run_chunks(chunks, [&body, n, chunks](std::size_t c) {
      body(c, c * n / chunks, (c + 1) * n / chunks);
    });
  }

  /// Self-scheduled block loop: run `body(slot, lo, hi)` once for every
  /// block [b*block, min(n, (b+1)*block)) of [0, n).  Block boundaries
  /// depend only on (n, block).  The caller (slot 0) and up to size()-1
  /// workers (slots 1..) claim blocks in ascending order from one shared
  /// cursor until none is left, so a participant on a slow core simply
  /// claims fewer blocks.  `slot` is dense in [0, min(size(), blocks)) and
  /// names the participant, not the work: a slot runs on one thread for
  /// the whole call and may run any number of blocks (possibly none), so
  /// it is the hook for per-participant scratch, while every output must
  /// be keyed by index or by block.  Blocks until every participant has
  /// stopped; a body exception stops its participant and is rethrown
  /// after that (first one wins).  Runs every block inline, in order, as
  /// slot 0, when there is one block, size() <= 1, or the caller is one
  /// of this pool's workers.  `block` = 0 is read as 1.
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
    run_chunks(std::min(workers_, blocks), claim_loop);
  }

  /// The pool the calling thread works for: the pool whose worker it is,
  /// or — while a caller outside every pool runs chunk 0 of a dispatch —
  /// the dispatching pool.  nullptr on any other thread (the main thread
  /// between dispatches).  Code that would dispatch to a *different* pool
  /// checks it too (through fan_out_pool()): a thread that blocks on
  /// another pool's chunks holds its own pool's capacity hostage.
  [[nodiscard]] static ThreadPool* worker_pool() noexcept;

 private:
  /// One dispatch's shared state, on the caller's stack.  A submitted task
  /// captures only {job, chunk} — 16 trivially copyable bytes, which
  /// std::function stores inline, so a dispatch allocates no task objects.
  /// Completion is tracked here, not by wait_idle(), so concurrent submit()
  /// traffic from other threads cannot stall the caller.
  template <typename F>
  struct ChunkJob {
    ChunkJob(F& f, std::size_t submitted) : run_one(f), remaining(submitted) {}

    F& run_one;
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining;     // guarded by m: submitted chunks not done
    std::exception_ptr error;  // guarded by m: the first chunk exception

    // Runs chunk c; the first exception is recorded, not thrown, so every
    // chunk finishes before the caller rethrows.
    void run(std::size_t c) noexcept {
      try {
        run_one(c);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(m);
        if (!error) error = std::current_exception();
      }
    }
  };

  /// Run run_one(c) for every c in [0, chunks): chunk 0 on the calling
  /// thread, chunks 1.. as pool tasks.  Everything runs inline, in chunk
  /// order, when there is one chunk or the caller is one of this pool's
  /// workers.
  template <typename F>
  void run_chunks(std::size_t chunks, const F& run_one) {
    ThreadPool* const outer = worker_pool();
    if (chunks <= 1 || outer == this) {
      for (std::size_t c = 0; c < chunks; ++c) run_one(c);
      return;
    }
    ChunkJob<const F> job(run_one, chunks - 1);
    for (std::size_t c = 1; c < chunks; ++c) {
      submit([shared = &job, c] {
        shared->run(c);
        // Notify under the lock: once `remaining` hits 0 the caller may
        // destroy the job, so the notify must not happen after release.
        const std::lock_guard<std::mutex> lock(shared->m);
        if (--shared->remaining == 0) shared->cv.notify_all();
      });
    }
    // Chunk 0 runs beside the workers' chunks, so the caller counts as one
    // of this pool's workers meanwhile: a dispatch nested in it runs
    // inline, and so does library code that asks fan_out_pool().  A thread
    // that already works for another pool stays that pool's.
    if (outer == nullptr) set_worker_pool(this);
    job.run(0);
    if (outer == nullptr) set_worker_pool(nullptr);
    std::unique_lock<std::mutex> lock(job.m);
    job.cv.wait(lock, [&job] { return job.remaining == 0; });
    if (job.error) std::rethrow_exception(job.error);
  }

  /// The task queue: a FIFO ring over a buffer that only grows, so a
  /// queue that has reached its deepest level allocates nothing per task.
  /// The names stay clear of push/pop: mldcs-analyze links calls by name.
  class TaskRing {
   public:
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    void enqueue(std::function<void()>&& task) {
      if (count_ == slots_.size()) grow();
      slots_[(head_ + count_) % slots_.size()] = std::move(task);
      ++count_;
    }
    /// The oldest task; the ring must not be empty.
    std::function<void()> dequeue() noexcept {
      const std::size_t at = head_;
      head_ = (head_ + 1) % slots_.size();
      --count_;
      return std::exchange(slots_[at], nullptr);
    }

   private:
    MLDCS_ALLOC_OK void grow();  // double the buffer, oldest task first

    std::vector<std::function<void()>> slots_;
    std::size_t head_ = 0;   // the oldest task's slot
    std::size_t count_ = 0;  // queued tasks
  };

  static void set_worker_pool(ThreadPool* pool) noexcept;
  void ensure_started();  // spawn workers on first submit; callers hold no lock
  void worker_loop();

  std::size_t workers_;

  mutable std::mutex mutex_;
  std::condition_variable task_cv_;   // workers: queue non-empty or stopping
  std::condition_variable idle_cv_;   // waiters: queue empty and none active
  TaskRing queue_;                              // guarded by mutex_
  std::vector<std::thread> threads_;            // guarded by mutex_
  std::size_t active_ = 0;                      // tasks currently executing
  bool stopping_ = false;                       // guarded by mutex_
  std::exception_ptr first_error_;              // guarded by mutex_
};

/// One-shot convenience: parallel_for on a transient pool (or inline when
/// the machine has a single core — the common case for this repo's CI).
/// Statically dispatched on the callable, like ThreadPool::parallel_for.
template <typename F>
void parallel_for(std::size_t n, F&& body, std::size_t threads = 0) {
  ThreadPool pool(threads);
  pool.parallel_for(n, body);
}

/// Process-wide shared pool, created on first use, destroyed at exit.  The
/// hook for steady-state loops — mobility maintenance, repeated sweeps —
/// that should reuse one set of workers across steps instead of paying
/// pool construction per step.  Same concurrency contract as any
/// ThreadPool; callers must not rely on exclusive use.
///
/// The library also dispatches to it on its own, through fan_out_pool():
/// a whole-plane `net::DynamicDiskGraph::apply` with many movers (its
/// per-mover diff), a `net::DiskGraph::build` of 4096+ nodes (its count
/// and fill passes), and a skyline `bcast::simulate_broadcast` (each large
/// frontier's forwarding sets).  Those stages are bounded by this pool's
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
/// caller runs chunk 0 — the sibling chunks already hold the cores, so a
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
