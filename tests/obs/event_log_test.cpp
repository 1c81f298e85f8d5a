// Tests for the flight recorder: id assignment, causal links, bounded
// capacity, thread merging, and the mldcs-events-v1 JSONL document.  The
// event state is process global, so every test starts from stop+clear.

#include "obs/event_log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/thread_pool.hpp"

namespace mldcs::obs {
namespace {

std::string dump_jsonl() {
  std::ostringstream os;
  write_events_jsonl(os);
  return os.str();
}

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    events_stop();
    events_clear();
  }
  void TearDown() override {
    events_stop();
    events_clear();
  }
};

TEST_F(EventLogTest, TypeNamesAreStableSchemaTokens) {
  EXPECT_STREQ(event_type_name(EventType::kBroadcast), "broadcast");
  EXPECT_STREQ(event_type_name(EventType::kTx), "tx");
  EXPECT_STREQ(event_type_name(EventType::kRx), "rx");
  EXPECT_STREQ(event_type_name(EventType::kDuplicateRx), "dup_rx");
  EXPECT_STREQ(event_type_name(EventType::kDesignate), "designate");
  EXPECT_STREQ(event_type_name(EventType::kSuppress), "suppress");
  EXPECT_STREQ(event_type_name(EventType::kStep), "step");
  EXPECT_STREQ(event_type_name(EventType::kCacheUpdate), "cache_update");
  EXPECT_STREQ(event_type_name(EventType::kWatchdogCheck), "watchdog_check");
  EXPECT_STREQ(event_type_name(EventType::kWatchdogMismatch),
               "watchdog_mismatch");
}

TEST_F(EventLogTest, DisarmedEmitIsInvisible) {
  EXPECT_FALSE(events_enabled());
  EXPECT_EQ(emit_event(EventType::kTx, 1, kNoNode, kNoEvent, 0), kNoEvent);
  EXPECT_TRUE(events_snapshot().empty());
}

TEST_F(EventLogTest, JsonlAlwaysStartsWithSchemaHeader) {
  const std::string doc = dump_jsonl();
  EXPECT_EQ(doc.find("{\"schema\":\"mldcs-events-v1\""), 0u);
  EXPECT_NE(doc.find("\"count\":0"), std::string::npos);
}

TEST_F(EventLogTest, IdsAreMonotoneFromZeroAndSnapshotOrdered) {
  events_start();
  const std::uint64_t a = emit_event(EventType::kTx, 1, kNoNode, kNoEvent, 7);
  const std::uint64_t b = emit_event(EventType::kRx, 2, 1, a, 1);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);

  const auto events = events_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, 0u);
  EXPECT_EQ(events[0].type, EventType::kTx);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].value, 7u);
  EXPECT_EQ(events[1].parent, a);
  EXPECT_EQ(events[1].b, 1u);
}

TEST_F(EventLogTest, ClearRestartsTheIdSequence) {
  events_start();
  static_cast<void>(emit_event(EventType::kStep, 0, 0, kNoEvent, 1));
  events_clear();
  EXPECT_EQ(emit_event(EventType::kStep, 0, 0, kNoEvent, 2), 0u);
}

TEST_F(EventLogTest, CapacityBoundsTheLogAndCountsDrops) {
  events_start(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t id =
        emit_event(EventType::kStep, 0, 0, kNoEvent, i);
    if (i < 4) {
      EXPECT_EQ(id, i);
    } else {
      EXPECT_EQ(id, kNoEvent);
    }
  }
  EXPECT_EQ(events_snapshot().size(), 4u);
  EXPECT_EQ(events_dropped(), 6u);
  const std::string doc = dump_jsonl();
  EXPECT_NE(doc.find("\"count\":4"), std::string::npos);
  EXPECT_NE(doc.find("\"dropped\":6"), std::string::npos);
}

TEST_F(EventLogTest, MultiThreadEmissionsMergeSortedWithUniqueIds) {
  events_start();
  sim::ThreadPool pool(4);
  pool.parallel_for(64, [](std::size_t i) {
    static_cast<void>(emit_event(EventType::kStep,
                                 static_cast<std::uint32_t>(i), kNoNode,
                                 kNoEvent, i));
  });
  const auto events = events_snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i);  // unique and gap-free after the sort
  }
}

TEST_F(EventLogTest, JsonlOmitsSentinelFieldsAndKeepsPresentOnes) {
  events_start();
  static_cast<void>(
      emit_event(EventType::kTx, 3, kNoNode, kNoEvent, 0));  // no b, no parent
  static_cast<void>(emit_event(EventType::kRx, 4, 3, 0, 1));
  const std::string doc = dump_jsonl();
  EXPECT_NE(doc.find("{\"id\":0,\"t\":\"tx\",\"a\":3,\"v\":0}"),
            std::string::npos);
  EXPECT_NE(
      doc.find("{\"id\":1,\"t\":\"rx\",\"a\":4,\"b\":3,\"parent\":0,\"v\":1}"),
      std::string::npos);
}

TEST_F(EventLogTest, StopFreezesTheLogWithoutClearingIt) {
  events_start();
  static_cast<void>(emit_event(EventType::kStep, 0, 0, kNoEvent, 1));
  events_stop();
  EXPECT_EQ(emit_event(EventType::kStep, 0, 0, kNoEvent, 2), kNoEvent);
  EXPECT_EQ(events_snapshot().size(), 1u);
}

}  // namespace
}  // namespace mldcs::obs
