#pragma once

/// \file telemetry.hpp
/// Lock-light runtime telemetry: monotonic counters, gauges, and
/// log-bucketed histograms, collected in a named registry.
///
/// Tuning the incremental machinery (SkylineCache tolerances, compaction
/// thresholds, pool sizing) needs live counters and distributions, not the
/// end-of-run aggregates perf_suite prints.  The design follows the usual
/// simulation-engine instrumentation split (cf. ROSS's st-data-collection):
///
///  - **Updates are wait-free**: every metric is one (or a few) relaxed
///    std::atomic fetch_add/store; no lock is ever taken on the hot path.
///    Each metric sits on its own cache line so unrelated counters do not
///    false-share.
///  - **Registration is locked**: Registry::counter/gauge/histogram take a
///    mutex, but call sites hoist the returned reference into a
///    function-local static, so the lock is paid once per call site per
///    process, not per event.
///
/// Snapshots (JSON / Prometheus text) live in obs/export.hpp; tracing spans
/// in obs/trace.hpp.

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mldcs::obs {

/// Plain-data snapshot of one histogram (see Histogram::snapshot).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  /// One entry per non-empty log bucket, ascending: values in [lo, hi].
  struct Bucket {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t count = 0;
  };
  std::vector<Bucket> buckets;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Plain-data snapshot of a whole registry (see Registry::snapshot).
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Monotonic event counter.  Updates are relaxed atomic adds; reads are
/// racy-but-coherent (fine for snapshots: each counter is individually
/// exact, cross-counter consistency is not promised).
class alignas(64) Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-writer-wins level gauge with a monotonic-max variant for
/// high-water marks.
class alignas(64) Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  /// Raise the gauge to `v` if it is below (relaxed CAS loop); the gauge
  /// becomes a high-water mark.
  void set_max(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-bucketed histogram over non-negative integer samples: bucket 0 holds
/// the value 0, bucket b >= 1 holds [2^(b-1), 2^b - 1], so 65 fixed buckets
/// cover the whole uint64 range with ~2x relative resolution — enough to
/// read dirty-relay counts, queue depths, or span durations at a glance
/// without per-workload bucket tuning.  record() is 3 relaxed adds plus a
/// relaxed min/max CAS; no allocation ever.
class alignas(64) Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    raise(max_, v);
    lower(min_, v);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Bucket index of a sample: 0 for 0, else bit_width(v).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
  }
  /// Inclusive value range of bucket `b` (inverse of bucket_of).
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b <= 1 ? b : std::uint64_t{1} << (b - 1);
  }
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t b) noexcept {
    return b == 0 ? 0
           : b >= 64
               ? ~std::uint64_t{0}
               : (std::uint64_t{1} << b) - 1;
  }

  [[nodiscard]] HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    s.count = count();
    s.sum = sum();
    if (s.count != 0) {
      s.min = min_.load(std::memory_order_relaxed);
      s.max = max_.load(std::memory_order_relaxed);
    }
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = buckets_[b].load(std::memory_order_relaxed);
      if (c != 0) s.buckets.push_back({bucket_lo(b), bucket_hi(b), c});
    }
    return s;
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  }

 private:
  static void raise(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void lower(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (cur > v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
};

/// Named metric registry.  Lookup-or-create is mutex-guarded and returns a
/// reference that stays valid for the registry's lifetime (metrics live in
/// stable-address storage and are never removed), so call sites cache it:
///
///   static obs::Counter& calls = obs::registry().counter("skyline.calls");
///   calls.add();
///
/// Instances are independent (tests use their own); the process-wide one is
/// obs::registry().
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find or create the named metric.  Asking for an existing name returns
  /// the same object every time.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Consistent-per-metric copy of every metric, names sorted ascending.
  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// Zero every registered metric (names stay registered — cached
  /// references remain valid).  For tests and per-section bench resets.
  void reset() noexcept;

 private:
  struct Impl;
  Impl* impl_;  ///< raw pointer: keeps the header <memory>-free
};

/// The process-wide registry every built-in instrumentation point reports
/// to.  Constructed on first use, never destroyed before static teardown.
Registry& registry();

}  // namespace mldcs::obs
