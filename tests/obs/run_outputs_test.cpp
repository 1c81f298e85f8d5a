// Tests for the observability front end: strict --introspect and
// positional-real parsing, flags taken out of argv while every other
// argument stays, and a start/finish round trip that writes each requested
// artifact (the event file holding the blackbox exit dump's crash_dump
// event) or names the path it cannot write.

#include "obs/run_outputs.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/blackbox.hpp"
#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

namespace mldcs::obs {
namespace {

/// A mutable argv over owned strings, as RunOutputs::parse receives it.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {
    for (std::string& a : args_) ptrs_.push_back(a.data());
    argc = static_cast<int>(ptrs_.size());
  }
  char** argv() noexcept { return ptrs_.data(); }
  /// The arguments parse() left, argv[0] included.
  [[nodiscard]] std::vector<std::string> left() const {
    return {ptrs_.begin(), ptrs_.begin() + argc};
  }

  int argc = 0;

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

class RunOutputsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    blackbox_disarm();
    profiler_disarm();
    events_stop();
    events_clear();
    trace_stop();
    trace_clear();
  }

  std::ostringstream out_;
  std::ostringstream err_;
  RunOutputs outputs_{out_, err_};
};

TEST_F(RunOutputsTest, IntrospectAcceptsPortsInRange) {
  for (const char* port : {"0", "8377", "65535"}) {
    RunOutputs outputs(out_, err_);
    Args args({"prog", "--introspect", port});
    EXPECT_TRUE(outputs.parse(args.argc, args.argv())) << port;
    EXPECT_EQ(args.argc, 1) << port;
  }
  EXPECT_EQ(err_.str(), "");
}

TEST_F(RunOutputsTest, IntrospectRejectsMalformedPorts) {
  for (const char* port : {"abc", "80x", "", "-1", "65536"}) {
    std::ostringstream err;
    RunOutputs outputs(out_, err);
    Args args({"prog", "--introspect", port});
    EXPECT_FALSE(outputs.parse(args.argc, args.argv())) << port;
    EXPECT_TRUE(contains(err.str(), "expects a port in [0, 65535]")) << port;
  }
}

TEST(PositiveRealTest, AcceptsOnlyWholeFinitePositiveNumbers) {
  EXPECT_EQ(parse_positive_real("0.25"), 0.25);
  EXPECT_EQ(parse_positive_real("36.8"), 36.8);
  EXPECT_EQ(parse_positive_real("2e-3"), 2e-3);
  EXPECT_EQ(parse_positive_real("10"), 10.0);
  for (const char* text : {"", "abc", "0.25x", " 1", "1 ", "+1", "0", "0.0",
                           "-0.5", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(parse_positive_real(text).has_value()) << "'" << text << "'";
  }
}

TEST_F(RunOutputsTest, OtherArgumentsStayInArgvInOrder) {
  Args args({"p", "--quick", "--trace", "t", "5", "--introspect", "0", "x"});
  ASSERT_TRUE(outputs_.parse(args.argc, args.argv()));
  EXPECT_EQ(args.left(), (std::vector<std::string>{"p", "--quick", "5", "x"}));
}

TEST_F(RunOutputsTest, FlagWithoutValueIsRejected) {
  for (const char* flag : {"--trace", "--profile", "--introspect"}) {
    std::ostringstream err;
    RunOutputs outputs(out_, err);
    Args args({"prog", "--quick", flag});
    EXPECT_FALSE(outputs.parse(args.argc, args.argv())) << flag;
    EXPECT_TRUE(contains(err.str(), std::string(flag) + " expects a value"));
  }
}

TEST_F(RunOutputsTest, RoundTripWritesEveryRequestedFile) {
  const std::string dir = ::testing::TempDir() + "run_outputs.";
  const std::string trace = dir + "trace.json";
  const std::string snapshot = dir + "snapshot.json";
  const std::string events = dir + "events.jsonl";
  const std::string blackbox = dir + "blackbox.jsonl";
  const std::string profile = dir + "profile.folded";
  Args args({"prog", "--trace", trace, "--telemetry", snapshot, "--events",
             events, "--blackbox", blackbox, "--profile", profile});
  ASSERT_TRUE(outputs_.parse(args.argc, args.argv()));
  ASSERT_EQ(args.argc, 1);
  ASSERT_TRUE(outputs_.start()) << err_.str();
  EXPECT_TRUE(trace_enabled());
  EXPECT_TRUE(events_enabled());
  EXPECT_TRUE(blackbox_armed());
  EXPECT_TRUE(profiler_armed());
  EXPECT_EQ(outputs_.introspect_note(), "off");
  EXPECT_EQ(outputs_.blackbox_note(), blackbox);
  EXPECT_EQ(outputs_.profile_note(), profile);
  {
    const Scope scope(Phase::kGraphApply);
    blackbox_heartbeat(1);
  }

  ASSERT_TRUE(outputs_.finish()) << err_.str();
  EXPECT_EQ(err_.str(), "");
  EXPECT_FALSE(blackbox_armed());
  EXPECT_FALSE(profiler_armed());
  EXPECT_FALSE(events_enabled());
  EXPECT_TRUE(contains(slurp(trace), "\"graph_apply\""));
  EXPECT_TRUE(contains(slurp(snapshot), "mldcs-telemetry-v1"));
  EXPECT_TRUE(contains(slurp(blackbox), "mldcs-blackbox-v1"));
  EXPECT_TRUE(std::ifstream(profile).good());
  const std::string log = slurp(events);
  EXPECT_TRUE(contains(log, "\"t\":\"heartbeat\"")) << log;
  EXPECT_TRUE(contains(log, "\"t\":\"crash_dump\"")) << log;
}

TEST_F(RunOutputsTest, UnwritablePathFailsFinishAndIsNamed) {
  const std::string bad = ::testing::TempDir() + "no_such_dir/trace.json";
  const std::string snapshot = ::testing::TempDir() + "run_outputs.s.json";
  Args args({"prog", "--trace", bad, "--telemetry", snapshot});
  ASSERT_TRUE(outputs_.parse(args.argc, args.argv()));
  ASSERT_TRUE(outputs_.start());

  EXPECT_FALSE(outputs_.finish());
  EXPECT_TRUE(contains(err_.str(), bad)) << err_.str();
  // The other artifacts are still written.
  EXPECT_TRUE(contains(slurp(snapshot), "mldcs-telemetry-v1"));
}

}  // namespace
}  // namespace mldcs::obs
