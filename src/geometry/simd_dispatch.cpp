#include <cstdlib>
#include <cstring>

#include "geometry/simd.hpp"

// Runtime kernel dispatch (see simd.hpp).  The geometry CMakeLists compiles
// the wide TU of the target architecture (x86-64: AVX2, AArch64: NEON) and
// defines MLDCS_SIMD_HAS_AVX2 / MLDCS_SIMD_HAS_NEON for it, so this file is
// the single place that knows what exists.

namespace mldcs::geom::simd {

#if defined(MLDCS_SIMD_HAS_AVX2)
const SkylineKernels& avx2_kernels() noexcept;
#endif
#if defined(MLDCS_SIMD_HAS_NEON)
const SkylineKernels& neon_kernels() noexcept;
#endif

namespace {

/// Test override installed by ScopedKernelOverride; read on every
/// active_kernels() call (plain pointer — single-threaded installers only).
const SkylineKernels* g_override = nullptr;

bool env_forces_scalar() noexcept {
  const char* env = std::getenv("MLDCS_SIMD");
  return env != nullptr && (std::strcmp(env, "off") == 0 ||
                            std::strcmp(env, "scalar") == 0);
}

const SkylineKernels* widest_supported() noexcept {
#if defined(MLDCS_SIMD_HAS_AVX2)
  if (__builtin_cpu_supports("avx2")) return &avx2_kernels();
#endif
#if defined(MLDCS_SIMD_HAS_NEON)
  return &neon_kernels();  // NEON is baseline on AArch64
#endif
  return nullptr;
}

const SkylineKernels* choose() noexcept {
  if (env_forces_scalar()) return &scalar_kernels();
  const SkylineKernels* wide = widest_supported();
  return wide != nullptr ? wide : &scalar_kernels();
}

}  // namespace

const SkylineKernels& active_kernels() noexcept {
  if (g_override != nullptr) return *g_override;
  // First call decides; later calls are one load + branch.  The guard for
  // this local static is warmed by static init / the first skyline call,
  // in line with the hot path's warmed-up zero-lock discipline.
  static const SkylineKernels* const kChosen = choose();
  return *kChosen;
}

const char* detected_isa() noexcept {
  const SkylineKernels* wide = widest_supported();
  return wide != nullptr ? wide->name : "none";
}

const char* dispatch_choice() noexcept { return active_kernels().name; }

bool simd_compiled() noexcept {
#if defined(MLDCS_SIMD_HAS_AVX2) || defined(MLDCS_SIMD_HAS_NEON)
  return true;
#else
  return false;
#endif
}

ScopedKernelOverride::ScopedKernelOverride(const SkylineKernels& k) noexcept
    : prev_(g_override) {
  g_override = &k;
}

ScopedKernelOverride::~ScopedKernelOverride() { g_override = prev_; }

}  // namespace mldcs::geom::simd
