// Clean fixture for the lock-discipline Scope carve-out.  The real
// obs::Scope (obs/scope.hpp) records its armed spans through a translation
// unit full of registry mutexes, but on a registered thread the scope is
// relaxed thread-local stores plus one ring-slot store — LOCK_FREE_CALLEES
// tells the walk not to descend into it, so an MLDCS_NO_LOCK body may tag
// itself.  Must stay silent.
#include <cstdint>
#include <mutex>

#define MLDCS_NO_LOCK

namespace fixture {

std::mutex g_reg_mu;
thread_local std::uint32_t t_phase;

class Scope {
 public:
  explicit Scope(std::uint32_t p) : prev_(t_phase) {
    // A lock sink the walk would flag if it descended into the callee.
    const std::lock_guard<std::mutex> lock(g_reg_mu);
    t_phase = p;
  }
  ~Scope() { t_phase = prev_; }

 private:
  std::uint32_t prev_;
};

MLDCS_NO_LOCK std::uint32_t tagged_step(std::uint32_t p) {
  const Scope scope(p);  // named-variable call site
  Scope(p + 1);  // temporary call site (bare `p` would declare a var)
  return t_phase;
}

}  // namespace fixture
