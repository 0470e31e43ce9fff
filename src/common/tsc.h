// Host cycle counter for deadlines and latency stamps.
//
// The simulated machine has an exact clock (kernel::Cpu::now()); the host
// runtime needs a cheap monotonic-enough tick to express call deadlines in
// "cycles" without a syscall per check. On x86 this is rdtsc (constant-rate
// on every target this repo runs on), on arm64 the virtual counter; the
// fallback is steady_clock nanoseconds, which keeps deadline arithmetic
// meaningful (just at a different rate). Deadline consumers only compare
// two readings from the same thread, so none of rdtsc's cross-core
// ordering caveats apply.
#pragma once

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace hppc {

inline std::uint64_t host_cycles() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

}  // namespace hppc
