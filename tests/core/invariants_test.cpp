// Tests of the MLDCS_CHECK / MLDCS_DCHECK macro family and its failure
// policy (abort and soft-count modes); the contracts the macros check are
// tested in validate_test.cpp.

#include "core/invariants.hpp"

#include <gtest/gtest.h>

#include <string>

namespace mldcs::core {
namespace {

/// RAII guard: switch the invariant handler to soft-count mode for one test
/// and restore abort mode (and a clean counter) afterwards.
class SoftFailScope {
 public:
  SoftFailScope() {
    reset_invariant_failures();
    set_invariant_action(InvariantAction::kCount);
  }
  ~SoftFailScope() {
    set_invariant_action(InvariantAction::kAbort);
    reset_invariant_failures();
  }
  SoftFailScope(const SoftFailScope&) = delete;
  SoftFailScope& operator=(const SoftFailScope&) = delete;
};

TEST(InvariantMacrosTest, PassingCheckHasNoEffect) {
  const SoftFailScope scope;
  MLDCS_CHECK(1 + 1 == 2, "never evaluated");
  MLDCS_CHECK_OK(std::string{});
  EXPECT_EQ(invariant_failure_count(), 0u);
  EXPECT_EQ(first_invariant_failure(), "");
}

TEST(InvariantMacrosTest, SoftFailCountsAndRecordsFirstMessage) {
  const SoftFailScope scope;
  const int answer = 41;
  MLDCS_CHECK(answer == 42, "answer was " << answer);
  MLDCS_CHECK(false, "second failure");
  EXPECT_EQ(invariant_failure_count(), 2u);
  const std::string first = first_invariant_failure();
  EXPECT_NE(first.find("answer == 42"), std::string::npos) << first;
  EXPECT_NE(first.find("answer was 41"), std::string::npos) << first;
  EXPECT_NE(first.find("invariants_test.cpp"), std::string::npos) << first;
}

TEST(InvariantMacrosTest, CheckOkUsesValidatorMessageAsDetail) {
  const SoftFailScope scope;
  MLDCS_CHECK_OK(std::string("the envelope drifted"));
  EXPECT_EQ(invariant_failure_count(), 1u);
  EXPECT_NE(first_invariant_failure().find("the envelope drifted"),
            std::string::npos);
}

TEST(InvariantMacrosTest, ResetClearsCounterAndMessage) {
  const SoftFailScope scope;
  MLDCS_CHECK(false, "boom");
  reset_invariant_failures();
  EXPECT_EQ(invariant_failure_count(), 0u);
  EXPECT_EQ(first_invariant_failure(), "");
}

#if GTEST_HAS_DEATH_TEST
TEST(InvariantMacrosDeathTest, AbortModeAbortsWithExpressionDump) {
  EXPECT_DEATH(MLDCS_CHECK(false, "fatal detail " << 123),
               "MLDCS invariant violation");
}
#endif

}  // namespace
}  // namespace mldcs::core
