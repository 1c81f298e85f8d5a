// Tests for chrome-trace span collection through obs::Scope.  The trace
// state is process global, so every test starts from a clean stop+clear
// and the assertions are substring checks on the emitted JSON document.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "obs/scope.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::obs {
namespace {

std::string flush_trace() {
  std::ostringstream os;
  write_trace_json(os);
  return os.str();
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_stop();
    trace_clear();
  }
  void TearDown() override {
    trace_stop();
    trace_clear();
  }
};

TEST_F(TraceTest, EmptyDocumentIsValidJson) {
  const std::string doc = flush_trace();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(doc.find("\"dropped_spans\":0"), std::string::npos);
  EXPECT_EQ(count_occurrences(doc, "\"ph\""), 0u);
}

TEST_F(TraceTest, SpansIgnoredWhileStopped) {
  { const Scope scope(Phase::kBroadcast); }
  const std::string doc = flush_trace();
  EXPECT_EQ(doc.find("\"broadcast\""), std::string::npos);
}

TEST(PhaseTable, NamesAreUniqueAndOnlyPerCallPhasesAreUntraced) {
  std::vector<std::string> names;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    names.emplace_back(phase_name(phase));
    const bool sample_only =
        phase == Phase::kSimdKernel || phase == Phase::kPoolIdle;
    EXPECT_EQ(phase_traced(phase), phase != Phase::kNone && !sample_only);
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  EXPECT_STREQ(phase_name(Phase::kGraphApply), "graph_apply");
  EXPECT_STREQ(phase_name(Phase::kCacheUpdate), "cache_update");
}

TEST_F(TraceTest, RecordsCompleteEvents) {
  trace_start();
  EXPECT_TRUE(trace_enabled());
  { const Scope scope(Phase::kCacheUpdate); }
  { const Scope scope(Phase::kCacheUpdate); }
  trace_stop();
  EXPECT_FALSE(trace_enabled());

  const std::string doc = flush_trace();
  EXPECT_EQ(count_occurrences(doc, "\"cache_update\""), 2u);
  EXPECT_EQ(count_occurrences(doc, "\"ph\":\"X\""), 2u);
  EXPECT_NE(doc.find("\"dur\":"), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":"), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"mldcs\""), std::string::npos);
}

TEST_F(TraceTest, SampleOnlyPhasesNeverRecordSpans) {
  trace_start();
  { const Scope scope(Phase::kSimdKernel); }
  { const Scope scope(Phase::kPoolIdle); }
  { const Scope scope(Phase::kGraphApply); }
  trace_stop();
  const std::string doc = flush_trace();
  EXPECT_EQ(count_occurrences(doc, "\"ph\":\"X\""), 1u);
  EXPECT_NE(doc.find("\"graph_apply\""), std::string::npos);
  EXPECT_EQ(doc.find("simd_kernel"), std::string::npos);
  EXPECT_EQ(doc.find("pool_idle"), std::string::npos);
}

TEST_F(TraceTest, ScopeSetsThePhaseWordWhileTracing) {
  trace_start();
  {
    const Scope outer(Phase::kEngineStep);
    EXPECT_EQ(profiler_current_phase(), Phase::kEngineStep);
    {
      const Scope inner(Phase::kGraphApply);
      EXPECT_EQ(profiler_current_phase(), Phase::kGraphApply);
    }
    EXPECT_EQ(profiler_current_phase(), Phase::kEngineStep);
  }
  EXPECT_EQ(profiler_current_phase(), Phase::kNone);
  trace_stop();
  const std::string doc = flush_trace();
  EXPECT_NE(doc.find("\"engine_step\""), std::string::npos);
  EXPECT_NE(doc.find("\"graph_apply\""), std::string::npos);
}

TEST_F(TraceTest, FlushClearsBuffers) {
  trace_start();
  { const Scope scope(Phase::kCachePatch); }
  trace_stop();
  EXPECT_NE(flush_trace().find("cache_patch"), std::string::npos);
  EXPECT_EQ(flush_trace().find("cache_patch"), std::string::npos);
}

TEST_F(TraceTest, ClearDropsBufferedEvents) {
  trace_start();
  { const Scope scope(Phase::kCacheCompact); }
  trace_stop();
  trace_clear();
  EXPECT_EQ(flush_trace().find("cache_compact"), std::string::npos);
}

TEST_F(TraceTest, SpanArmedAtConstructionOutlivesStop) {
  // The scope decides at construction; stopping mid-scope still records.
  trace_start();
  std::string doc;
  {
    const Scope scope(Phase::kStepCommit);
    trace_stop();
  }
  doc = flush_trace();
  EXPECT_NE(doc.find("step_commit"), std::string::npos);
}

TEST_F(TraceTest, MultiThreadSpansAllFlushedWithDistinctTids) {
  trace_start();
  sim::ThreadPool pool(4);
  pool.parallel_for(8, [](std::size_t) {
    const Scope scope(Phase::kShardStep);
  });
  trace_stop();
  const std::string doc = flush_trace();
  EXPECT_EQ(count_occurrences(doc, "\"shard_step\""), 8u);
  EXPECT_NE(doc.find("\"tid\":"), std::string::npos);
}

// A full ring drops instead of growing: the overflow is counted in the
// document, which stays one well-formed object, and the count resets with
// the flush.
TEST_F(TraceTest, RingOverflowCountsDroppedSpansAndStaysValid) {
  constexpr std::size_t kExtra = 7;
  trace_start();
  for (std::size_t i = 0; i < kTraceRingSlots + kExtra; ++i) {
    const Scope scope(Phase::kHaloExchange);
  }
  trace_stop();
  const std::string doc = flush_trace();
  EXPECT_EQ(count_occurrences(doc, "\"halo_exchange\""), kTraceRingSlots);
  EXPECT_NE(doc.find("\"dropped_spans\":" + std::to_string(kExtra)),
            std::string::npos);
  EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(doc.substr(doc.size() - 3), "}}\n");
  EXPECT_EQ(doc.find(",,"), std::string::npos);
  EXPECT_EQ(doc.find("[,"), std::string::npos);

  const std::string next = flush_trace();
  EXPECT_NE(next.find("\"dropped_spans\":0"), std::string::npos);
  EXPECT_EQ(count_occurrences(next, "\"ph\""), 0u);
}

// Flushing while pool workers record is the rings' one concurrent
// producer/consumer pair; the ThreadSanitizer leg race-checks it.  Every
// span lands in exactly one of the flushed documents.
TEST_F(TraceTest, FlushWhileWorkersOpenArmedScopes) {
  constexpr std::size_t kTasks = 8;
  constexpr std::size_t kScopesPerTask = 2000;
  trace_start();
  sim::ThreadPool pool(4);
  std::atomic<bool> done{false};
  std::size_t flushed = 0;
  std::thread flusher([&] {
    while (!done.load()) {
      flushed += count_occurrences(flush_trace(), "\"cache_recompute\"");
    }
  });
  pool.parallel_for(kTasks, [](std::size_t) {
    for (std::size_t i = 0; i < kScopesPerTask; ++i) {
      const Scope scope(Phase::kCacheRecompute);
    }
  });
  done.store(true);
  flusher.join();
  trace_stop();
  flushed += count_occurrences(flush_trace(), "\"cache_recompute\"");
  EXPECT_EQ(flushed, kTasks * kScopesPerTask);
}

// The profiler's old fixed registry stopped at 64 threads; the shared
// record registry has no cap and reuses retired records, so spans and
// events keep flowing after more than 64 threads have come and gone.
TEST_F(TraceTest, ManyJoinedThreadsThenFreshPoolStillRecords) {
  constexpr std::size_t kThreads = 72;
  {
    std::atomic<std::size_t> registered{0};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        profiler_register_thread();
        registered.fetch_add(1);
        while (registered.load() < kThreads) std::this_thread::yield();
      });
    }
    for (auto& t : threads) t.join();
  }

  events_stop();
  events_clear();
  events_start();
  trace_start();
  sim::ThreadPool pool(4);
  pool.parallel_for(8, [](std::size_t i) {
    const Scope scope(Phase::kBroadcast);
    (void)emit_event(EventType::kStep, static_cast<std::uint32_t>(i),
                     kNoNode, kNoEvent, 0);
  });
  trace_stop();
  events_stop();
  EXPECT_EQ(count_occurrences(flush_trace(), "\"broadcast\""), 8u);
  EXPECT_EQ(events_snapshot().size(), 8u);
  events_clear();
}

}  // namespace
}  // namespace mldcs::obs
