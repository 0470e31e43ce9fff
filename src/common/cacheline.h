// Host cache-line utilities for the real-thread runtime (rt/).
//
// The paper's whole point is that per-processor state must not share cache
// lines with other processors' state; on the host we enforce that with
// alignment rather than with the NUMA placement the Hector kernel used.
#pragma once

#include <bit>
#include <cstddef>

namespace hppc {

/// Pinned, not taken from std::hardware_destructive_interference_size: that
/// value varies with -mtune and compiler version, and these alignments are
/// part of the layout the shm transport shares between processes, so every
/// build must agree on them. 64 B is the line size of every x86-64 and
/// arm64 core this repo targets.
inline constexpr std::size_t kHostCacheLine = 64;
static_assert(std::has_single_bit(kHostCacheLine),
              "kHostCacheLine must be a power of two");

/// Wrap per-CPU-slot state so adjacent slots never false-share.
template <typename T>
struct alignas(kHostCacheLine) CacheAligned {
  T value{};

  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
  T& operator*() { return value; }
  const T& operator*() const { return value; }
};

}  // namespace hppc
