// Tests for chrome-trace span collection through obs::Scope.  The trace
// state is process global, so every test starts from a clean stop+clear
// and the assertions read the emitted JSON document: substring checks,
// and for the library's pooled stages the spans read back per thread.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <regex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "broadcast/broadcast_sim.hpp"
#include "broadcast/relay_skyline.hpp"
#include "broadcast/skyline_cache.hpp"
#include "net/disk_graph.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/topology.hpp"
#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "obs/scope.hpp"
#include "sim/rng.hpp"
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

/// One span of a trace document, its times read back in whole ns.
struct Span {
  std::string name;
  unsigned long tid = 0;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Every span of `doc`.  A ts or dur that is not exact microseconds with
/// three decimals leaves its span unread, which fails the count check.
std::vector<Span> parse_spans(const std::string& doc) {
  static const std::regex kSpan(
      R"re(\{"name":"(\w+)","cat":"mldcs","ph":"X","pid":0,"tid":(\d+),)re"
      R"re("ts":(\d+)\.(\d{3}),"dur":(\d+)\.(\d{3})\})re");
  const auto ns = [](const std::ssub_match& us, const std::ssub_match& frac) {
    return std::stoll(us.str()) * 1000 + std::stoll(frac.str());
  };
  std::vector<Span> spans;
  for (std::sregex_iterator it(doc.begin(), doc.end(), kSpan), end;
       it != end; ++it) {
    const std::smatch& m = *it;
    spans.push_back({m[1].str(), std::stoul(m[2].str()), ns(m[3], m[4]),
                     ns(m[5], m[6])});
  }
  EXPECT_EQ(spans.size(), count_occurrences(doc, "\"ph\":\"X\""))
      << "every ts and dur must be exact decimal microseconds";
  return spans;
}

/// Checks the `phase` spans of `doc`, the trace of one pooled pass that
/// its caller made after opening a step_commit mark (a phase nothing on
/// the path opens): exactly one on the calling thread, at most `slots` in
/// all (one per worker slot besides), and none that starts inside an
/// earlier one on its thread.
void expect_one_span_per_slot(const std::string& doc,
                              const std::string& phase, std::size_t slots) {
  std::vector<Span> spans = parse_spans(doc);
  const auto mark = std::find_if(spans.begin(), spans.end(), [](const Span& s) {
    return s.name == "step_commit";
  });
  ASSERT_NE(mark, spans.end()) << "no step_commit mark";
  const unsigned long caller = mark->tid;
  std::erase_if(spans, [&phase](const Span& s) { return s.name != phase; });
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tuple(a.tid, a.ts_ns, -a.dur_ns) <
           std::tuple(b.tid, b.ts_ns, -b.dur_ns);
  });
  std::size_t on_caller = 0;
  std::size_t nested = 0;
  std::int64_t end = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const bool same_thread = i > 0 && s.tid == spans[i - 1].tid;
    if (same_thread && s.ts_ns < end) ++nested;
    end = same_thread ? std::max(end, s.ts_ns + s.dur_ns)
                      : s.ts_ns + s.dur_ns;
    if (s.tid == caller) ++on_caller;
  }
  EXPECT_EQ(on_caller, 1u) << phase << " spans on the calling thread";
  EXPECT_LE(spans.size(), slots) << phase << " spans in all";
  EXPECT_EQ(nested, 0u) << phase << " spans nested in their own phase";
}

/// A heterogeneous deployment of the paper's (radii U[1, 2] on the 12.5
/// square) at its lowest average degree, 10: about 270 nodes, enough for a
/// pooled apply and dozens of relay blocks, and quick under the invariant
/// checks of the sanitizer builds.
std::vector<net::Node> deployment() {
  net::DeploymentParams p;
  p.model = net::RadiusModel::kUniform;
  sim::Xoshiro256 rng(35);
  return net::generate_deployment(p, rng);
}

/// `nodes` with every node moved 0.05 along x, inside the square.
std::vector<net::Node> nudged(std::span<const net::Node> nodes) {
  std::vector<net::Node> moved(nodes.begin(), nodes.end());
  for (net::Node& n : moved) {
    n.pos.x += n.pos.x + 0.05 <= net::DeploymentParams{}.side ? 0.05 : -0.05;
  }
  return moved;
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

// Timestamps are written as whole nanoseconds over 1000: a double at the
// stream's six significant digits would round a start after 1 s to 10 us.
TEST(TraceMicroseconds, AreExactDecimalsAtEveryMagnitude) {
  const auto us = [](std::int64_t ns) {
    std::ostringstream os;
    detail::write_trace_us(os, ns);
    return os.str();
  };
  EXPECT_EQ(us(0), "0.000");
  EXPECT_EQ(us(999), "0.999");
  EXPECT_EQ(us(1'234'567), "1234.567");
  EXPECT_EQ(us(2'019'840'123'456), "2019840123.456");
}

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

// A pass's workers work in its caller's phase, one span per worker slot,
// and no relay block opens a scope: so a dirty-relay recompute on a
// one-worker pool, which runs every block inline, is exactly the caller's
// one cache_recompute span, however many blocks it has.
TEST_F(TraceTest, InlineCacheRecomputeIsOneSpan) {
  sim::ThreadPool one(1);
  net::DynamicDiskGraph dyn{deployment()};
  bcast::SkylineCache cache(dyn, one);
  const std::vector<net::Node> moved = nudged(dyn.nodes());
  trace_start();
  { const Scope mark(Phase::kStepCommit); }
  cache.update(dyn.apply(moved));
  trace_stop();
  ASSERT_GT(cache.last_dirty().size(), bcast::detail::kRelayBlock);
  expect_one_span_per_slot(flush_trace(), "cache_recompute", one.size());
}

// On four workers: the caller's cache_recompute span and one per worker
// slot (a worker may run several slots of one dispatch, one after the
// other).
TEST_F(TraceTest, PooledCacheRecomputeIsOneSpanPerSlot) {
  sim::ThreadPool four(4);
  net::DynamicDiskGraph dyn{deployment()};
  bcast::SkylineCache cache(dyn, four);
  const std::vector<net::Node> moved = nudged(dyn.nodes());
  trace_start();
  { const Scope mark(Phase::kStepCommit); }
  cache.update(dyn.apply(moved));
  trace_stop();
  ASSERT_GT(cache.last_dirty().size(), 4 * bcast::detail::kRelayBlock);
  expect_one_span_per_slot(flush_trace(), "cache_recompute", four.size());
}

// The same for a whole-plane apply that moves every node: its per-mover
// diff runs on sim::default_pool(), pooled when that has more than one
// worker.
TEST_F(TraceTest, PooledApplyIsOneSpanPerSlot) {
  net::DynamicDiskGraph dyn{deployment()};
  const std::vector<net::Node> moved = nudged(dyn.nodes());
  trace_start();
  { const Scope mark(Phase::kStepCommit); }
  const std::size_t movers = dyn.apply(moved).moved.size();
  trace_stop();
  ASSERT_GE(movers, net::DynamicDiskGraph::kParallelApplyMovers);
  expect_one_span_per_slot(flush_trace(), "graph_apply",
                           sim::default_pool().size());
}

// A skyline broadcast is one broadcast span on the calling thread: the
// entry point opens it and delivery opens none.  Each worker slot of the
// transmitter closure's pass adds one.
TEST_F(TraceTest, SkylineBroadcastIsOneSpanOnTheCallingThread) {
  const net::DiskGraph g = net::DiskGraph::build(deployment());
  trace_start();
  { const Scope mark(Phase::kStepCommit); }
  const bcast::BroadcastResult r =
      bcast::simulate_broadcast(g, 0, bcast::Scheme::kSkyline);
  trace_stop();
  EXPECT_GT(r.transmissions, 1u);
  expect_one_span_per_slot(flush_trace(), "broadcast",
                           sim::default_pool().size());
}

}  // namespace
}  // namespace mldcs::obs
