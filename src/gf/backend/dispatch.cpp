// Backend selection: CPUID feature detection + AG_GF_BACKEND override.
//
// Selection runs once, on the first call to active()/active_backend(), and
// caches an atomic pointer to the winning kernel table; after that a bulk-op
// dispatch costs one relaxed-ish atomic load.  reselect() re-runs selection
// (tests use it to observe a setenv).  Selection is thread-safe: concurrent
// first calls race benignly to store the same value.
#include <atomic>
#include <cstdlib>

#include "gf/backend/backend.hpp"

namespace ag::gf::backend {

namespace {

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_backend{-1};

}  // namespace

bool detail::cpu_has_ssse3() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("ssse3") != 0;
#else
  return false;
#endif
}

bool detail::cpu_has_avx2() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool detail::cpu_has_gfni() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("gfni") != 0 && __builtin_cpu_supports("avx512bw") != 0;
#else
  return false;
#endif
}

const char* to_string(Backend b) noexcept {
  switch (b) {
    case Backend::scalar: return "scalar";
    case Backend::ssse3: return "ssse3";
    case Backend::avx2: return "avx2";
    case Backend::gfni: return "gfni";
  }
  return "scalar";
}

bool parse_backend(std::string_view s, Backend& out) noexcept {
  if (s == "scalar") {
    out = Backend::scalar;
    return true;
  }
  if (s == "ssse3") {
    out = Backend::ssse3;
    return true;
  }
  if (s == "avx2") {
    out = Backend::avx2;
    return true;
  }
  if (s == "gfni") {
    out = Backend::gfni;
    return true;
  }
  return false;
}

const KernelTable* table_for(Backend b) noexcept {
  switch (b) {
    case Backend::scalar:
      return &detail::scalar_kernels();
    case Backend::ssse3:
      return detail::cpu_has_ssse3() ? detail::ssse3_kernels() : nullptr;
    case Backend::avx2:
      return detail::cpu_has_avx2() ? detail::avx2_kernels() : nullptr;
    case Backend::gfni:
      return detail::cpu_has_gfni() ? detail::gfni_kernels() : nullptr;
  }
  return nullptr;
}

Backend detect_best() noexcept {
  if (table_for(Backend::gfni) != nullptr) return Backend::gfni;
  if (table_for(Backend::avx2) != nullptr) return Backend::avx2;
  if (table_for(Backend::ssse3) != nullptr) return Backend::ssse3;
  return Backend::scalar;
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out{Backend::scalar};
  if (table_for(Backend::ssse3) != nullptr) out.push_back(Backend::ssse3);
  if (table_for(Backend::avx2) != nullptr) out.push_back(Backend::avx2);
  if (table_for(Backend::gfni) != nullptr) out.push_back(Backend::gfni);
  return out;
}

Backend reselect() noexcept {
  Backend chosen = detect_best();
  if (const char* env = std::getenv("AG_GF_BACKEND"); env != nullptr && *env) {
    Backend requested;
    // Unknown names and unavailable backends fall back to the detected best:
    // a forced recipe must keep running on hardware that lacks the backend.
    if (parse_backend(env, requested) && table_for(requested) != nullptr) {
      chosen = requested;
    }
  }
  g_table.store(table_for(chosen), std::memory_order_release);
  g_backend.store(static_cast<int>(chosen), std::memory_order_release);
  return chosen;
}

Backend active_backend() noexcept {
  const int b = g_backend.load(std::memory_order_acquire);
  if (b >= 0) return static_cast<Backend>(b);
  return reselect();
}

const KernelTable& active() noexcept {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  reselect();
  return *g_table.load(std::memory_order_acquire);
}

}  // namespace ag::gf::backend
