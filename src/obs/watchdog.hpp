#pragma once

/// \file watchdog.hpp
/// Online consistency watchdog: prove an incrementally maintained result
/// stays equal to its from-scratch recomputation *during* a long run, not
/// only in tests.
///
/// The incremental machinery (bcast::SkylineCache) is differential-tested
/// against from-scratch sweeps, but a production mobility run gets no such
/// check: a latent dirty-rule bug or a corrupted slot would silently serve
/// wrong forwarding sets for hours.  `ConsistencyWatchdog` closes that gap
/// at bounded cost: every `period` steps it samples `samples` distinct
/// relays (deterministic xorshift sequence), recomputes each from scratch
/// through the caller-supplied reference function, and compares against the
/// cached answer.  Cost per check is `samples` single-relay recomputations
/// — independent of network size — so the sampling budget is a dial
/// between detection latency and overhead.
///
/// Mismatches are reported three ways: `watchdog.*` metrics (counters for
/// checks/sampled/mismatches, a last-mismatch-step gauge), flight-recorder
/// events (kWatchdogCheck per check, kWatchdogMismatch per bad relay,
/// causally linked to the cache update they indict), and the object's own
/// plain counters, which the verdict API reads.
///
/// The class is callback-generic (it lives below net/broadcast in the
/// layering); `bcast::make_cache_watchdog` binds it to a SkylineCache.

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/event_log.hpp"

namespace mldcs::obs {

class ConsistencyWatchdog {
 public:
  struct Config {
    std::uint32_t period = 16;  ///< check every K steps (0 treated as 1)
    std::uint32_t samples = 8;  ///< M relays compared per check
    std::uint64_t seed = 0x9E3779B97F4A7C15ull;  ///< sampling sequence seed
  };

  /// Computes the ground-truth value for one relay (from scratch).
  using ReferenceFn = std::function<std::vector<std::uint32_t>(std::uint32_t)>;
  /// Reads the cached value for one relay.
  using CachedFn = std::function<std::vector<std::uint32_t>(std::uint32_t)>;

  ConsistencyWatchdog(std::size_t n_relays, ReferenceFn reference,
                      CachedFn cached, Config config);

  /// Call once per maintenance step.  Every `period`-th call runs a check;
  /// `parent_event` (e.g. the step's kCacheUpdate event id) causally links
  /// the check's events to the update being audited.  Returns false iff
  /// this call ran a check that found at least one mismatch.
  bool on_step(std::uint64_t parent_event = kNoEvent);

  /// Run a check immediately, regardless of the period phase.
  bool check_now(std::uint64_t parent_event = kNoEvent);

  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
  [[nodiscard]] std::uint64_t sampled() const noexcept { return sampled_; }
  [[nodiscard]] std::uint64_t mismatches() const noexcept {
    return mismatches_;
  }
  /// True while no check has ever found a mismatch.
  [[nodiscard]] bool clean() const noexcept { return mismatches_ == 0; }
  /// Relays found inconsistent by the most recent check (empty when the
  /// last check passed).
  [[nodiscard]] const std::vector<std::uint32_t>& last_mismatched_relays()
      const noexcept {
    return last_mismatched_;
  }
  /// Step index (1-based on_step count) of the most recent mismatch, or 0.
  [[nodiscard]] std::uint64_t last_mismatch_step() const noexcept {
    return last_mismatch_step_;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  std::uint32_t next_sample() noexcept;

  std::size_t n_relays_;
  ReferenceFn reference_;
  CachedFn cached_;
  Config config_;

  std::uint64_t rng_state_;
  std::uint64_t steps_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t last_mismatch_step_ = 0;
  std::vector<std::uint32_t> last_mismatched_;
  std::vector<std::uint32_t> sample_scratch_;
};

}  // namespace mldcs::obs
