// Per-CPU slots for the host runtime.
//
// The paper's design needs "this processor's" resources; on the host we
// approximate processors with slots: each participating thread registers
// once, is assigned a slot, and (where the platform allows) is pinned to
// the matching CPU. All slot-owned state is cache-line aligned so slots
// never false-share — the host analogue of node-local memory.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

#include "common/assert.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace hppc::rt {

using SlotId = std::uint32_t;
inline constexpr SlotId kInvalidSlot = ~SlotId{0};

/// Assigns slot ids to threads; at most `capacity` threads may register.
class SlotRegistry {
 public:
  explicit SlotRegistry(std::uint32_t capacity)
      : generation_(next_generation()),
        capacity_(capacity ? capacity
                           : std::max(1u, std::thread::hardware_concurrency())) {}

  std::uint32_t capacity() const { return capacity_; }

  /// Register the calling thread; idempotent per thread per registry.
  /// Optionally pins the thread to CPU (slot % hardware cpus).
  ///
  /// The cached TLS record is keyed by the registry's process-unique
  /// generation, NOT its address: a `this` comparison would let a new
  /// registry constructed at a reused address silently hand back the slot
  /// the thread held in the destroyed one.
  SlotId register_thread(bool pin = false) {
    thread_local struct TlsSlot {
      std::uint64_t generation = 0;  // 0 never issued
      SlotId slot = kInvalidSlot;
    } tls;
    if (tls.generation == generation_ && tls.slot != kInvalidSlot) {
      return tls.slot;
    }
    const SlotId slot = next_.fetch_add(1, std::memory_order_relaxed);
    HPPC_ASSERT_MSG(slot < capacity_, "too many threads for this registry");
    tls.generation = generation_;
    tls.slot = slot;
    if (pin) pin_to_cpu(slot);
    return slot;
  }

  static void pin_to_cpu(SlotId slot) {
#if defined(__linux__)
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(slot % n, &set);
    // Best effort: pinning may be forbidden in constrained environments.
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)slot;
#endif
  }

 private:
  static std::uint64_t next_generation() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t generation_;
  std::uint32_t capacity_;
  std::atomic<SlotId> next_{0};
};

}  // namespace hppc::rt
