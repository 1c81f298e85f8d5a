// Tests for the blackbox flight recorder: arm/heartbeat/dump lifecycle,
// ring wrap, the watchdog dump hook, and — via a re-exec death test — the
// async-signal-safe crash dumper itself (a child driven into SIGABRT must
// leave a parseable mldcs-blackbox-v1 report whose newest heartbeat
// matches the step the parent drove it to).

#include "obs/blackbox.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"

namespace mldcs::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Step tag of the newest heartbeat frame in a report (frames are dumped
/// oldest to newest), or 0 when the report has none.
std::uint64_t newest_heartbeat_step(const std::string& doc) {
  const std::size_t frame = doc.rfind("{\"kind\":\"heartbeat\"");
  if (frame == std::string::npos) return 0;
  const std::size_t at = doc.find("\"step\":", frame);
  if (at == std::string::npos) return 0;
  return std::strtoull(doc.c_str() + at + 7, nullptr, 10);
}

class BlackBoxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    blackbox_disarm();  // isolate from any earlier test's arming
  }
  void TearDown() override { blackbox_disarm(); }

  std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }
};

TEST_F(BlackBoxTest, DisarmedIsInert) {
  EXPECT_FALSE(blackbox_armed());
  blackbox_heartbeat(1);  // must be a safe no-op
  EXPECT_FALSE(blackbox_dump_now("test"));
}

TEST_F(BlackBoxTest, ArmHeartbeatDumpRoundtrip) {
  const std::string path = temp_path("bb_roundtrip.jsonl");
  BlackBoxConfig cfg;
  cfg.path = path.c_str();
  cfg.install_signal_handlers = false;
  ASSERT_TRUE(blackbox_arm(cfg));
  EXPECT_TRUE(blackbox_armed());

  registry().counter("bbtest.ticks").add(7);
  for (std::uint64_t step = 1; step <= 5; ++step) blackbox_heartbeat(step);
  EXPECT_EQ(blackbox_heartbeat_count(), 5u);
  ASSERT_TRUE(blackbox_dump_now("test"));

  const std::string doc = slurp(path);
  EXPECT_NE(doc.find("\"kind\":\"header\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema\":\"mldcs-blackbox-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"reason\":\"test\""), std::string::npos);
  EXPECT_EQ(count_of(doc, "{\"kind\":\"heartbeat\""), 5u);
  EXPECT_NE(doc.find("\"bbtest.ticks\":[7,"), std::string::npos);
  EXPECT_NE(doc.find("{\"kind\":\"end\",\"frames\":5,"), std::string::npos);
  EXPECT_EQ(newest_heartbeat_step(doc), 5u);
}

TEST_F(BlackBoxTest, CounterDeltasAreSinceLastFrame) {
  const std::string path = temp_path("bb_deltas.jsonl");
  BlackBoxConfig cfg;
  cfg.path = path.c_str();
  cfg.install_signal_handlers = false;
  ASSERT_TRUE(blackbox_arm(cfg));

  Counter& c = registry().counter("bbtest.delta");
  c.add(10);
  blackbox_heartbeat(1);  // absolute >= 10, delta vs arm baseline
  c.add(3);
  blackbox_heartbeat(2);  // delta must be exactly 3
  ASSERT_TRUE(blackbox_dump_now("test"));

  const std::string doc = slurp(path);
  const std::uint64_t abs_before = c.value();
  std::ostringstream want;
  want << "\"bbtest.delta\":[" << abs_before << ",3]";
  EXPECT_NE(doc.find(want.str()), std::string::npos) << doc;
}

TEST_F(BlackBoxTest, RingWrapKeepsNewestFrames) {
  const std::string path = temp_path("bb_wrap.jsonl");
  BlackBoxConfig cfg;
  cfg.path = path.c_str();
  cfg.frames = 4;
  cfg.install_signal_handlers = false;
  ASSERT_TRUE(blackbox_arm(cfg));

  for (std::uint64_t step = 1; step <= 10; ++step) blackbox_heartbeat(step);
  EXPECT_EQ(blackbox_heartbeat_count(), 10u);
  ASSERT_TRUE(blackbox_dump_now("test"));

  const std::string doc = slurp(path);
  EXPECT_EQ(count_of(doc, "{\"kind\":\"heartbeat\""), 4u);
  // The ring keeps the newest frames: steps 7..10 survive, 1..6 do not.
  EXPECT_EQ(doc.find("\"step\":6,"), std::string::npos);
  EXPECT_NE(doc.find("\"step\":7,"), std::string::npos);
  EXPECT_EQ(newest_heartbeat_step(doc), 10u);
}

TEST_F(BlackBoxTest, DoubleArmAndBadPathFail) {
  const std::string path = temp_path("bb_double.jsonl");
  BlackBoxConfig cfg;
  cfg.path = path.c_str();
  cfg.install_signal_handlers = false;
  ASSERT_TRUE(blackbox_arm(cfg));
  EXPECT_FALSE(blackbox_arm(cfg));  // already armed
  blackbox_disarm();

  BlackBoxConfig bad;
  bad.path = "/nonexistent-dir-for-mldcs-test/bb.jsonl";
  bad.install_signal_handlers = false;
  EXPECT_FALSE(blackbox_arm(bad));
  EXPECT_FALSE(blackbox_armed());
}

TEST_F(BlackBoxTest, WatchdogMismatchTriggersDump) {
  const std::string path = temp_path("bb_watchdog.jsonl");
  BlackBoxConfig cfg;
  cfg.path = path.c_str();
  cfg.install_signal_handlers = false;
  ASSERT_TRUE(blackbox_arm(cfg));
  blackbox_heartbeat(1);

  // Reference and cached views that can never agree: every check finds
  // mismatches, so check_now must route through blackbox_dump_now.
  ConsistencyWatchdog::Config wd_cfg;
  wd_cfg.samples = 2;
  ConsistencyWatchdog dog(
      /*n_relays=*/4,
      [](std::uint32_t) { return std::vector<std::uint32_t>{1}; },
      [](std::uint32_t) { return std::vector<std::uint32_t>{2}; }, wd_cfg);
  EXPECT_FALSE(dog.check_now());

  const std::string doc = slurp(path);
  EXPECT_NE(doc.find("\"reason\":\"watchdog\""), std::string::npos);
  EXPECT_GE(count_of(doc, "{\"kind\":\"heartbeat\""), 1u);
}

// The acceptance-criterion crash test: a child process (threadsafe death
// tests re-exec the binary, so fork-with-threads hazards do not apply)
// arms the recorder, heartbeats to a step count the parent knows, and
// aborts mid-run.  The handler must leave a parseable report whose reason
// is SIGABRT and whose newest frame carries exactly that step.
TEST_F(BlackBoxTest, CrashDumpOnSigabrtCarriesLastHeartbeat) {
  constexpr std::uint64_t kSteps = 41;
  const std::string path = temp_path("bb_crash.jsonl");

  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        BlackBoxConfig cfg;
        cfg.path = path.c_str();
        if (!blackbox_arm(cfg)) _Exit(97);
        registry().counter("bbtest.crash").add(1);
        for (std::uint64_t step = 1; step <= kSteps; ++step) {
          blackbox_heartbeat(step);
        }
        std::raise(SIGABRT);
      },
      ::testing::KilledBySignal(SIGABRT), "");

  const std::string doc = slurp(path);
  ASSERT_FALSE(doc.empty()) << "crash handler wrote no report";
  EXPECT_NE(doc.find("\"schema\":\"mldcs-blackbox-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"reason\":\"SIGABRT\""), std::string::npos);
  EXPECT_EQ(newest_heartbeat_step(doc), kSteps);
  EXPECT_NE(doc.find("{\"kind\":\"end\","), std::string::npos);
}

}  // namespace
}  // namespace mldcs::obs
