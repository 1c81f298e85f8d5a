// Tests for the sampling profiler: arm/disarm lifecycle, Scope
// nesting, phase attribution over a tagged busy loop (the sampling path
// itself, end to end: timers, SIGPROF handler, ring, drain, fold),
// capture-window semantics, the crash-snapshot line, and the folded/JSON
// writers' schema.

#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>

namespace mldcs::obs {
namespace {

/// Burn CPU for roughly `ms` of wall time (the loop is CPU-bound, so
/// CPU-clock timers see it 1:1).  Returns a value the optimizer must
/// keep, so the loop cannot be elided.
std::uint64_t spin_for_ms(int ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  volatile std::uint64_t acc = 1;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 4096; ++i) {
      acc = acc * 2862933555777941757ULL + 3037000493ULL;
    }
  }
  return acc;
}

std::uint64_t phase_sum(const ProfileReport& r) {
  std::uint64_t sum = 0;
  for (const auto& [name, count] : r.phases) sum += count;
  return sum;
}

std::uint64_t phase_count(const ProfileReport& r, const char* name) {
  for (const auto& [n, count] : r.phases) {
    if (n == name) return count;
  }
  return 0;
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profiler_disarm();  // isolate from any earlier test's arming
  }
  void TearDown() override { profiler_disarm(); }
};

TEST_F(ProfilerTest, DisarmedIsInert) {
  EXPECT_FALSE(profiler_armed());
  profiler_disarm();  // disarming while disarmed must be a safe no-op
  EXPECT_FALSE(profiler_armed());
  profiler_register_thread();  // registration while disarmed: also safe
}

TEST_F(ProfilerTest, ArmIsExclusiveAndRearmable) {
  ProfilerConfig cfg;
  ASSERT_TRUE(profiler_arm(cfg));
  EXPECT_TRUE(profiler_armed());
  EXPECT_FALSE(profiler_arm(cfg)) << "second arm while armed must fail";
  profiler_disarm();
  EXPECT_FALSE(profiler_armed());
  ASSERT_TRUE(profiler_arm(cfg)) << "disarm must allow rearming";
  profiler_disarm();
}

TEST_F(ProfilerTest, ScopeNestsAndRestores) {
  EXPECT_EQ(profiler_current_phase(), Phase::kNone);
  {
    const Scope outer(Phase::kShardStep);
    EXPECT_EQ(profiler_current_phase(), Phase::kShardStep);
    {
      const Scope inner(Phase::kHaloExchange);
      EXPECT_EQ(profiler_current_phase(), Phase::kHaloExchange);
    }
    EXPECT_EQ(profiler_current_phase(), Phase::kShardStep);
  }
  EXPECT_EQ(profiler_current_phase(), Phase::kNone);
}

// The end-to-end sampling path: a tagged busy loop on the arming thread
// must dominate the profile, and the per-phase counts must sum exactly
// to the total (every sample carries one phase).
TEST_F(ProfilerTest, TaggedBusyLoopDominatesProfile) {
  ProfilerConfig cfg;
  cfg.hz = 500;  // dense sampling keeps the test short but stable
  ASSERT_TRUE(profiler_arm(cfg));
  {
    const Scope phase(Phase::kSimdKernel);
    EXPECT_NE(spin_for_ms(400), 0u);
  }
  profiler_disarm();

  const ProfileReport r = profiler_report();
  EXPECT_EQ(r.hz, 500u);
  EXPECT_GT(r.duration_s, 0.0);
  ASSERT_GT(r.total_samples, 20u)
      << "a 400 ms busy loop at 500 Hz must produce samples";
  EXPECT_EQ(phase_sum(r), r.total_samples)
      << "phase counts must sum to the total";
  const std::uint64_t tagged = phase_count(r, "simd_kernel");
  EXPECT_GE(static_cast<double>(tagged),
            0.9 * static_cast<double>(r.total_samples))
      << "the tagged loop owns the CPU, so >=90% of samples must carry "
      << "its phase (got " << tagged << "/" << r.total_samples << ")";
}

// capture_window from a disarmed state arms, samples registered worker
// threads (the caller sleeps on its CPU clock, so the samples must come
// from the worker), disarms, and returns a complete report.  The worker
// registered before arming, so it got its sample ring when the profiler
// armed.
TEST_F(ProfilerTest, CaptureWindowSamplesRegisteredWorker) {
  std::atomic<bool> ready{false};
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    profiler_register_thread();
    ready.store(true);
    const Scope phase(Phase::kCacheRecompute);
    while (!stop.load()) {
      EXPECT_NE(spin_for_ms(10), 0u);
    }
  });
  while (!ready.load()) std::this_thread::yield();

  ProfilerConfig cfg;
  cfg.hz = 500;
  const ProfileReport r = profiler_capture_window(0.4, cfg);
  stop.store(true);
  worker.join();

  EXPECT_FALSE(profiler_armed()) << "capture_window must disarm on exit";
  ASSERT_GT(r.total_samples, 0u);
  EXPECT_EQ(phase_sum(r), r.total_samples);
  EXPECT_GT(phase_count(r, "cache_recompute"), 0u)
      << "the worker's tagged loop must appear in the window";
}

// A thread that registers while the profiler is armed gets its sample
// ring and its timer on registration, and is sampled like any other.
TEST_F(ProfilerTest, ThreadRegisteredWhileArmedIsSampled) {
  ProfilerConfig cfg;
  cfg.hz = 500;
  ASSERT_TRUE(profiler_arm(cfg));
  std::thread late([] {
    profiler_register_thread();
    const Scope phase(Phase::kGraphApply);
    EXPECT_NE(spin_for_ms(400), 0u);
  });
  late.join();
  profiler_disarm();

  const ProfileReport r = profiler_report();
  EXPECT_EQ(phase_sum(r), r.total_samples);
  EXPECT_GT(phase_count(r, "graph_apply"), 0u)
      << "the late thread's tagged loop must appear in the profile";
}

// The crash-snapshot line is refreshed by every drain sweep (including
// the final one at disarm), so after a sampled window it must be a
// bounded, newline-terminated {"kind":"profile",...} JSON line.
TEST_F(ProfilerTest, CrashSnapshotIsBoundedJsonLine) {
  ProfilerConfig cfg;
  cfg.hz = 500;
  ASSERT_TRUE(profiler_arm(cfg));
  {
    const Scope phase(Phase::kShardStep);
    EXPECT_NE(spin_for_ms(300), 0u);
  }
  profiler_disarm();

  char buf[16384];
  const std::size_t n = profiler_crash_snapshot(buf, sizeof(buf));
  ASSERT_GT(n, 0u);
  ASSERT_LE(n, sizeof(buf));
  const std::string line(buf, n);
  EXPECT_EQ(line.rfind("{\"kind\":\"profile\",\"schema\":"
                       "\"mldcs-profile-v1\"", 0), 0u);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"phases\":{"), std::string::npos);

  // A too-small destination must refuse (whole line or nothing).
  char tiny[8];
  EXPECT_EQ(profiler_crash_snapshot(tiny, sizeof(tiny)), 0u);
}

// --- Writers ---------------------------------------------------------------

TEST(ProfilerWriters, FoldedFormatIsOneStackPerLine) {
  ProfileReport r;
  r.hz = 97;
  r.total_samples = 5;
  r.folded = {{"simd_kernel;step;leaf", 3}, {"none;main", 2}};
  r.phases = {{"simd_kernel", 3}, {"none", 2}};
  std::ostringstream os;
  write_profile_folded(os, r);
  EXPECT_EQ(os.str(), "simd_kernel;step;leaf 3\nnone;main 2\n");
}

TEST(ProfilerWriters, JsonDocumentCarriesSchemaAndTotals) {
  ProfileReport r;
  r.hz = 97;
  r.total_samples = 3;
  r.dropped = 1;
  r.duration_s = 2.0;
  r.folded = {{"shard_step;apply", 3}};
  r.phases = {{"shard_step", 3}};
  std::ostringstream os;
  write_profile_json(os, r);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\":\"mldcs-profile-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"hz\":97"), std::string::npos);
  EXPECT_NE(doc.find("\"total_samples\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"dropped\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"phases\":{\"shard_step\":3}"), std::string::npos);
  EXPECT_NE(doc.find("\"folded\":{\"shard_step;apply\":3}"),
            std::string::npos);
}

TEST(ProfilerWriters, EmptyReportIsValidInBothBranches) {
  // The introspection server calls the writers whether or not the
  // profiler was ever armed: an empty report is still a valid document.
  const ProfileReport r;
  std::ostringstream folded;
  write_profile_folded(folded, r);
  EXPECT_TRUE(folded.str().empty());
  std::ostringstream json;
  write_profile_json(json, r);
  EXPECT_NE(json.str().find("\"schema\":\"mldcs-profile-v1\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"total_samples\":0"), std::string::npos);
}

}  // namespace
}  // namespace mldcs::obs
