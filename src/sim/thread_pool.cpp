#include "sim/thread_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>

#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

namespace mldcs::sim {

namespace {

/// Pool telemetry (docs/OBSERVABILITY.md), aggregated across every pool in
/// the process: executed-task count and total busy wall time (the
/// utilization numerator — compare against workers x elapsed).  A task is
/// one worker slot of a dispatch, so the two clock reads per task are
/// noise.  Slot 0 runs on the caller, not as a task, so it counts in
/// neither.  A task counts itself before it releases its dispatch, so the
/// counts are final once the dispatch returns.
struct PoolTelemetry {
  obs::Counter& tasks = obs::registry().counter("pool.tasks_executed");
  obs::Counter& busy_ns = obs::registry().counter("pool.busy_ns");
};

PoolTelemetry& pool_telemetry() {
  static PoolTelemetry t;
  return t;
}

/// The pool this thread works for: set once at the top of worker_loop,
/// and around slot 0 of a dispatch.
thread_local ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool* ThreadPool::worker_pool() noexcept { return t_worker_pool; }

ThreadPool::ThreadPool(std::size_t threads)
    : workers_(threads != 0 ? threads
                            : std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency())) {
  // Register the pool metrics up front so snapshots always carry them —
  // a single-worker pool runs everything inline and would otherwise never
  // touch the registry.
  pool_telemetry();
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ensure_started() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!threads_.empty() || stopping_) return;
  // The dispatching caller is slot 0, so size() - 1 threads serve the
  // other slots of any dispatch.
  threads_.reserve(workers_ - 1);
  for (std::size_t t = 1; t < workers_; ++t) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::run_slot(Dispatch& job, std::size_t slot) noexcept {
  try {
    job.run(job.loop, slot);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(job.m);
    if (!job.error) job.error = std::current_exception();
  }
}

void ThreadPool::dispatch(Dispatch& job, std::size_t tasks) {
  ensure_started();
  // Every worker slot runs in the caller's phase (worker_loop).
  job.caller_phase = obs::profiler_current_phase();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t slot = 1; slot <= tasks; ++slot) {
      queue_.enqueue({&job, slot});
    }
  }
  for (std::size_t t = 0; t < tasks; ++t) task_cv_.notify_one();
  // Slot 0 runs beside the workers' slots, so the caller counts as one of
  // this pool's workers meanwhile: a dispatch nested in it, on any pool,
  // runs inline.  Only a thread outside every pool gets here, so it is
  // outside again afterwards.
  t_worker_pool = this;
  run_slot(job, 0);
  t_worker_pool = nullptr;
  std::unique_lock<std::mutex> lock(job.m);
  job.cv.wait(lock, [&job] { return job.remaining == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  // Workers run the shard bodies; register them for CPU-time sampling
  // (idempotent, lock paid once per worker lifetime).
  obs::profiler_register_thread();
  for (;;) {
    Task task{};
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Parked workers burn no CPU, so the CPU-clock profiler rarely
      // catches this phase; the tag exists for the samples that land in
      // the wake/sleep edges.
      const obs::Scope idle(obs::Phase::kPoolIdle);
      task_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and no dispatch is in flight
      task = queue_.dequeue();
    }
    const std::int64_t t0 = obs::clock_ns();
    {
      const obs::Scope work(task.job->caller_phase);
      run_slot(*task.job, task.slot);
    }
    PoolTelemetry& t = pool_telemetry();
    t.tasks.add();
    t.busy_ns.add(static_cast<std::uint64_t>(obs::clock_ns() - t0));
    // Notify under the lock: once `remaining` hits 0 the caller may destroy
    // the dispatch, so the notify must not happen after the release.
    const std::lock_guard<std::mutex> lock(task.job->m);
    if (--task.job->remaining == 0) task.job->cv.notify_all();
  }
}

MLDCS_ALLOC_OK void ThreadPool::TaskRing::grow() {
  std::vector<Task> bigger(std::max<std::size_t>(16, 2 * slots_.size()));
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = slots_[(head_ + i) % slots_.size()];
  }
  slots_ = std::move(bigger);
  head_ = 0;
}

namespace detail {

std::size_t thread_override(const char* text, std::size_t hw) noexcept {
  if (text == nullptr || *text == '\0') return 0;
  // Hand-rolled parse: strtoul would accept "8abc" and negative wraparound.
  std::size_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 0;
    if (value > (std::numeric_limits<std::size_t>::max() - 9) / 10) {
      return hw;  // absurdly large: clamp rather than overflow
    }
    value = value * 10 + static_cast<std::size_t>(*p - '0');
  }
  if (value == 0) return 0;
  return std::min(value, std::max<std::size_t>(1, hw));
}

}  // namespace detail

ThreadPool& default_pool() {
  // Meyers singleton: thread-safe construction, joined during static
  // destruction.
  // MLDCS_THREADS (clamped to hardware_concurrency) pins the size for
  // reproducible CI/bench runs; the variable is read once, at first use.
  static ThreadPool pool(detail::thread_override(
      std::getenv("MLDCS_THREADS"), std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace mldcs::sim
