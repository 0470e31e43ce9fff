// Node-local hugepage-first memory arena for the runtime's hot structures.
//
// The paper places every per-processor PPC structure in the processor's own
// station memory so the warm path never crosses the interconnect (§4.5).
// This arena is the host-runtime analogue: one bump pool per NUMA node,
// backed by anonymous mmap chunks that are requested as explicit hugepages
// (MAP_HUGETLB) first and fall back to plain 4 K pages when the system has
// no hugetlbfs reservation — CI containers are the common case of that. A
// fallback chunk is sized to the pool's growth (64 KiB, or the request
// rounded up to the page when larger) and asks for no transparent
// hugepage: a runtime places a few hundred KiB, and zeroing a 2 MiB THP and
// checking its 512 pages was most of what building one cost. Chunks are
// bound to their node with mbind() *before* they are faulted in, then
// pre-faulted and every page's node read back, so placement is decided here
// once and never by first-touch accident on the warm path.
//
// The arena never runs destructors and never unmaps individual objects:
// callers may only place trivially-destructible types (rings, replica
// blocks, wait/CD pools, histogram blocks all qualify), and the whole
// mapping is released when the arena itself is destroyed. Allocation takes
// a per-node mutex, which is fine because every allocation happens at
// runtime construction or pool-growth time — never on the call path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace hppc::mem {

/// Gauges describing everything the arena has mapped so far. Snapshot is
/// internally consistent enough for telemetry (individual relaxed loads).
struct ArenaStats {
  std::uint64_t bytes_reserved = 0;   ///< total bytes mmap'd into pools
  std::uint64_t bytes_allocated = 0;  ///< bytes handed out to callers
  std::uint64_t hugepages = 0;        ///< explicit hugepages backing chunks
  std::uint64_t hugepage_bytes = 0;   ///< bytes backed by MAP_HUGETLB
  std::uint64_t hugepage_fallbacks = 0;  ///< chunks that fell back to 4 K
  std::uint64_t node_mismatches = 0;  ///< pages found resident off-node
  std::uint64_t pages_verified = 0;   ///< pages whose node was read back
  std::uint64_t mbind_failures = 0;   ///< mbind/get_mempolicy not honoured
  std::uint64_t chunks = 0;           ///< mapped chunks across all nodes
};

struct ArenaConfig {
  /// Number of node pools; 0 means detect from /sys/devices/system/node.
  std::uint32_t nodes = 0;
};

class Arena {
 public:
  explicit Arena(ArenaConfig cfg = {});

  /// Segment-backed mode: bump-allocate out of caller-provided storage —
  /// an shm_open/mmap segment being laid out by its creating process is the
  /// intended use (src/shm/ places ring banks and peer tables
  /// through this). One pool, no node striping, no growth: allocation past
  /// `bytes` throws std::bad_alloc, and the destructor does NOT unmap the
  /// region — its lifetime belongs to whoever mapped it. Everything else
  /// (alignment, trivially-destructible-only create/create_array, stats)
  /// behaves exactly like the anonymous-mapping mode.
  Arena(std::byte* base, std::size_t bytes);

  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Number of node pools (>= 1; clamped detection result).
  std::uint32_t nodes() const { return static_cast<std::uint32_t>(pools_.size()); }

  /// Bump-allocate `bytes` on `node` (clamped into range) with `align`
  /// alignment. Never returns nullptr: grows the pool or terminates via
  /// std::bad_alloc if the system refuses even 4 K mappings.
  void* allocate(NodeId node, std::size_t bytes, std::size_t align);

  /// Placement-construct one T on `node`. T must be trivially destructible:
  /// the arena releases storage wholesale and never runs ~T().
  template <class T, class... Args>
  T* create(NodeId node, Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without running destructors");
    void* p = allocate(node, sizeof(T), alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  /// Placement-construct a value-initialised T[n] on `node`.
  template <class T>
  T* create_array(NodeId node, std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without running destructors");
    void* p = allocate(node, sizeof(T) * n, alignof(T));
    T* first = static_cast<T*>(p);
    for (std::size_t i = 0; i < n; ++i) ::new (first + i) T();
    return first;
  }

  ArenaStats stats() const;

  /// NUMA nodes visible in /sys/devices/system/node (>= 1). Used both for
  /// pool sizing and by the runtime's slot->node map.
  static std::uint32_t detect_nodes();

 private:
  struct Chunk {
    std::byte* base = nullptr;
    std::size_t size = 0;
    bool huge = false;
    bool owned = true;      // segment-backed chunks are never unmapped here
    Chunk* next = nullptr;  // intrusive list; heads live in NodePool
  };

  struct NodePool {
    std::mutex mu;
    std::byte* cur = nullptr;
    std::size_t left = 0;
    Chunk* chunks = nullptr;
  };

  /// Map, bind, pre-fault and verify one chunk for `node`.
  Chunk* map_chunk(NodeId node, std::size_t min_bytes);

  bool external_ = false;  // segment-backed: fixed capacity, no growth
  std::vector<NodePool> pools_;

  std::atomic<std::uint64_t> bytes_reserved_{0};
  std::atomic<std::uint64_t> bytes_allocated_{0};
  std::atomic<std::uint64_t> hugepages_{0};
  std::atomic<std::uint64_t> hugepage_bytes_{0};
  std::atomic<std::uint64_t> hugepage_fallbacks_{0};
  std::atomic<std::uint64_t> node_mismatches_{0};
  std::atomic<std::uint64_t> pages_verified_{0};
  std::atomic<std::uint64_t> mbind_failures_{0};
  std::atomic<std::uint64_t> chunks_{0};
};

}  // namespace hppc::mem
