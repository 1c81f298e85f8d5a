#pragma once
// Miniature phase vocabulary for the event-vocabulary fixtures.
#include <cstdint>

namespace fixture {

enum class Phase : std::uint32_t {
  kIdle = 0,
  kApply = 1,
  kCommit = 2,  // seeded: no case in phase_name, not in obslib
};

constexpr const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kIdle:
      return "idle";
    case Phase::kApply:
      return "apply";
    // seeded: kCommit has no case
  }
  return "idle";
}

}  // namespace fixture
