#include "core/invariants.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace mldcs::core {

namespace {

std::atomic<InvariantAction> g_action{InvariantAction::kAbort};
std::atomic<std::uint64_t> g_failures{0};
std::mutex g_first_failure_mutex;
std::string g_first_failure;  // guarded by g_first_failure_mutex

}  // namespace

void set_invariant_action(InvariantAction action) noexcept {
  g_action.store(action, std::memory_order_relaxed);
}

InvariantAction invariant_action() noexcept {
  return g_action.load(std::memory_order_relaxed);
}

std::uint64_t invariant_failure_count() noexcept {
  return g_failures.load(std::memory_order_relaxed);
}

std::string first_invariant_failure() {
  const std::lock_guard<std::mutex> lock(g_first_failure_mutex);
  return g_first_failure;
}

void reset_invariant_failures() noexcept {
  g_failures.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(g_first_failure_mutex);
  g_first_failure.clear();
}

void report_invariant_violation(const char* expr, const char* file, int line,
                                const std::string& detail) {
  std::ostringstream os;
  os << "MLDCS invariant violation: " << expr << "\n  at " << file << ':'
     << line;
  if (!detail.empty()) os << "\n  " << detail;
  const std::string msg = os.str();
  if (invariant_action() == InvariantAction::kCount) {
    if (g_failures.fetch_add(1, std::memory_order_relaxed) == 0) {
      const std::lock_guard<std::mutex> lock(g_first_failure_mutex);
      if (g_first_failure.empty()) g_first_failure = msg;
    }
    return;
  }
  std::fprintf(stderr, "%s\n", msg.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace mldcs::core
