#pragma once

/// \file thread_pool.hpp
/// A fixed-size persistent worker pool: a task queue with submit/wait_idle
/// plus the static-chunked deterministic parallel_for the sweeps use.
///
/// The Chapter 5 sweeps are embarrassingly parallel across (sweep point,
/// trial) pairs; per the HPC guides we keep parallelism explicit and
/// deterministic: parallel_for deals work out in fixed contiguous chunks
/// (no work stealing, no shared RNG), so results are bitwise identical at
/// any thread count.  The queue side exists for the ROADMAP's async/batched
/// workloads: tasks may submit further tasks from inside a worker, and
/// destruction drains every queued task before joining (verified under
/// ThreadSanitizer by tests/sim/thread_pool_stress_test.cpp).
///
/// Concurrency contract:
///  - submit() is safe from any thread, including from inside a running
///    task.  Submitting after the destructor has begun (from outside a
///    task) is a caller bug.
///  - wait_idle() blocks until the queue is empty and no task is running,
///    then rethrows the first exception any submitted task threw since the
///    last wait_idle().
///  - parallel_for() must be called from outside the pool's own workers
///    (it blocks the caller until its chunks finish).
///  - The destructor finishes every queued task (including tasks those
///    tasks submit) before joining; exceptions from tasks drained during
///    destruction are swallowed.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
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
  /// Dispatch infrastructure allocates by design (one type-erased task
  /// object per call) — hot paths amortize it per chunk, never per item.
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
  /// contiguous chunks executed concurrently.  Blocks until all complete.
  /// Exceptions thrown by `body` are rethrown (first one wins).  Runs
  /// inline on the calling thread when size() <= 1 or n <= 1.
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
  /// RNGs): chunk c runs entirely on one worker.  Same chunk boundaries as
  /// parallel_for (deterministic in (n, size()) only).
  template <typename F>
  MLDCS_ALLOC_OK void parallel_chunks(std::size_t n, F&& body) {
    if (n == 0) return;
    const std::size_t nthreads = std::min(workers_, n);
    if (nthreads <= 1) {
      body(std::size_t{0}, std::size_t{0}, n);
      return;
    }
    // Static contiguous chunking: chunk t covers [t*n/T, (t+1)*n/T).
    // Completion is tracked by a local latch, not wait_idle(), so
    // concurrent submit() traffic from other threads cannot stall us.
    ChunkLatch latch;
    latch.remaining = nthreads;
    for (std::size_t t = 0; t < nthreads; ++t) {
      const std::size_t lo = t * n / nthreads;
      const std::size_t hi = (t + 1) * n / nthreads;
      submit([&latch, &body, t, lo, hi] {
        try {
          body(t, lo, hi);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(latch.m);
          if (!latch.error) latch.error = std::current_exception();
        }
        {
          // Notify under the lock: once `remaining` hits 0 the caller may
          // destroy the latch, so the notify must not happen after release.
          const std::lock_guard<std::mutex> lock(latch.m);
          if (--latch.remaining == 0) latch.cv.notify_all();
        }
      });
    }
    std::unique_lock<std::mutex> lock(latch.m);
    latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
    if (latch.error) std::rethrow_exception(latch.error);
  }

  /// Weighted chunk-level form: like parallel_chunks over
  /// [0, weights.size()), but chunk boundaries follow the cumulative
  /// `weights` — chunk t ends where the running weight sum first reaches
  /// (t+1)/T of the total — so contiguous ranges carry roughly equal
  /// *work* instead of equal index counts.  With per-node degrees as
  /// weights, a sweep whose per-node cost scales with degree no longer
  /// leaves most workers idle behind one chunk of hubs.  Chunk indices
  /// stay dense in [0, chunks) (empty ranges are never dispatched), and
  /// boundaries are deterministic in (weights, size()) — thread
  /// scheduling cannot move work between chunks.  Zero weights are
  /// allowed; a zero-total input degrades to one chunk of everything.
  template <typename F>
  MLDCS_ALLOC_OK void parallel_weighted_chunks(
      std::span<const std::uint32_t> weights, F&& body) {
    const std::size_t n = weights.size();
    if (n == 0) return;
    const std::size_t nthreads = std::min(workers_, n);
    std::uint64_t total = 0;
    for (const std::uint32_t w : weights) total += w;
    if (nthreads <= 1 || total == 0) {
      body(std::size_t{0}, std::size_t{0}, n);
      return;
    }
    // Boundary sweep: O(n + T), one pass, no per-index dispatch.
    // mldcs-analyze:allow(hot-no-alloc): O(threads) sweep setup
    std::vector<std::size_t> bounds;
    bounds.reserve(nthreads + 1);
    bounds.push_back(0);
    std::uint64_t cum = 0;
    std::size_t i = 0;
    for (std::size_t t = 0; t + 1 < nthreads; ++t) {
      const std::uint64_t target =
          (static_cast<std::uint64_t>(t) + 1) * total / nthreads;
      while (i < n && cum < target) cum += weights[i++];
      if (i > bounds.back()) bounds.push_back(i);
    }
    if (n > bounds.back()) bounds.push_back(n);
    const std::size_t chunks = bounds.size() - 1;
    if (chunks <= 1) {
      body(std::size_t{0}, std::size_t{0}, n);
      return;
    }
    ChunkLatch latch;
    latch.remaining = chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = bounds[c];
      const std::size_t hi = bounds[c + 1];
      submit([&latch, &body, c, lo, hi] {
        try {
          body(c, lo, hi);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(latch.m);
          if (!latch.error) latch.error = std::current_exception();
        }
        {
          const std::lock_guard<std::mutex> lock(latch.m);
          if (--latch.remaining == 0) latch.cv.notify_all();
        }
      });
    }
    std::unique_lock<std::mutex> lock(latch.m);
    latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
    if (latch.error) std::rethrow_exception(latch.error);
  }

 private:
  struct ChunkLatch {
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining = 0;
    std::exception_ptr error;
  };

  void ensure_started();  // spawn workers on first submit; callers hold no lock
  void worker_loop();

  std::size_t workers_;

  mutable std::mutex mutex_;
  std::condition_variable task_cv_;   // workers: queue non-empty or stopping
  std::condition_variable idle_cv_;   // waiters: queue empty and none active
  std::deque<std::function<void()>> queue_;     // guarded by mutex_
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
/// Size: hardware_concurrency, unless the `MLDCS_THREADS` environment
/// variable names a positive integer — then that, clamped to
/// hardware_concurrency.  One env var makes CI and bench runs reproducible
/// without plumbing --threads through every binary; unparsable or
/// non-positive values are ignored.
ThreadPool& default_pool();

namespace detail {
/// MLDCS_THREADS parsing, exposed for tests: returns the worker count for
/// the override text `text` (nullptr/empty/invalid/non-positive -> 0, i.e.
/// "no override, use hardware_concurrency"), clamped to `hw`.
[[nodiscard]] std::size_t thread_override(const char* text,
                                          std::size_t hw) noexcept;
}  // namespace detail

}  // namespace mldcs::sim
