// The node-local arena: allocation/alignment contracts, the hugepage-or-
// fallback policy (these tests MUST pass in CI containers with no
// hugetlbfs reservation — the fallback is the covered path, not an edge
// case), node clamping, and the gauge surface the runtime overlays into
// its counter snapshot.
#include "mem/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <set>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace hppc::mem {
namespace {

#ifdef __linux__
/// True when MAP_HUGETLB can back one default-size hugepage here; hosts
/// without a hugetlbfs reservation (most CI runners) answer false.
bool hugetlb_available() {
  constexpr std::size_t kHuge = 2u << 20;
  void* p = ::mmap(nullptr, kHuge, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
  if (p == MAP_FAILED) return false;
  ::munmap(p, kHuge);
  return true;
}

/// Pages of [p, p + bytes) resident right now.
std::size_t resident_pages(const void* p, std::size_t bytes) {
  std::vector<unsigned char> vec(bytes / kPageSize);
  if (::mincore(const_cast<void*>(p), bytes, vec.data()) != 0) return 0;
  std::size_t n = 0;
  for (unsigned char v : vec) n += v & 1u;
  return n;
}

/// Whether get_mempolicy can report a page's node in this process (a
/// seccomp filter or a kernel without NUMA syscalls makes it fail).
bool placement_readable(const void* p) {
#ifdef SYS_get_mempolicy
  int where = -1;
  constexpr unsigned kMpolFNodeAddr = 3;  // MPOL_F_NODE | MPOL_F_ADDR
  return ::syscall(SYS_get_mempolicy, &where, nullptr, 0UL, p,
                   kMpolFNodeAddr) == 0;
#else
  (void)p;
  return false;
#endif
}
#endif  // __linux__

TEST(Arena, AllocationsAreAlignedAndWritable) {
  Arena arena;
  for (const std::size_t align : {8u, 64u, 256u, 4096u}) {
    void* p = arena.allocate(/*node=*/0, /*bytes=*/align * 2, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "requested alignment " << align;
    std::memset(p, 0xAB, align * 2);  // must be committed, not just mapped
  }
}

TEST(Arena, AllocationsAreDistinct) {
  Arena arena;
  std::set<void*> seen;
  for (int i = 0; i < 64; ++i) {
    void* p = arena.allocate(0, 128, 64);
    std::memset(p, i, 128);
    EXPECT_TRUE(seen.insert(p).second);
  }
}

TEST(Arena, HugepageRequestAlwaysYieldsUsableMemory) {
  // The load-bearing fallback test: the arena tries MAP_HUGETLB first and
  // must produce memory whether or not the system has a hugetlbfs
  // reservation. In the common CI container (nr_hugepages=0) MAP_HUGETLB
  // fails and the chunk falls back to 4 K pages; the stats must say which
  // happened.
  Arena arena;
  void* p = arena.allocate(0, 1 << 16, 64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5C, 1 << 16);

  const ArenaStats s = arena.stats();
  EXPECT_GE(s.chunks, 1u);
  // Exactly one of the two outcomes, never neither: either the chunk is
  // hugepage-backed or the fallback was booked.
  if (s.hugepages == 0) {
    EXPECT_GT(s.hugepage_fallbacks, 0u)
        << "no hugepages and no booked fallback: the chunk came from nowhere";
    EXPECT_EQ(s.hugepage_bytes, 0u);
  } else {
    EXPECT_GT(s.hugepage_bytes, 0u);
  }
}

#ifdef __linux__
TEST(Arena, FallbackChunkIsSizedToTheRequest) {
  // Without a hugetlbfs reservation a 4 KiB request maps one 64 KiB chunk
  // (the growth granularity), not a 2 MiB block: every page of it is
  // pre-faulted and its node read back.
  if (hugetlb_available()) GTEST_SKIP() << "MAP_HUGETLB works here";
  Arena arena;
  void* p = arena.allocate(0, 4096, 64);
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.chunks, 1u);
  EXPECT_EQ(s.bytes_reserved, 64u << 10);
  EXPECT_EQ(s.hugepages, 0u);
  EXPECT_EQ(s.hugepage_bytes, 0u);
  EXPECT_EQ(s.hugepage_fallbacks, 1u);
  // The first allocation starts its chunk, so the chunk is [p, p + 64 KiB).
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kPageSize, 0u);
  EXPECT_EQ(resident_pages(p, 64u << 10), 16u);
  EXPECT_EQ(s.node_mismatches, 0u);
  if (placement_readable(p)) {
    EXPECT_EQ(s.pages_verified, 16u);
  }
}

TEST(Arena, LargeFallbackRequestGetsAChunkOfItsOwnSize) {
  // A request past the 64 KiB growth granularity maps exactly its own
  // size rounded up to the page, and every chunk books one fallback.
  if (hugetlb_available()) GTEST_SKIP() << "MAP_HUGETLB works here";
  Arena arena;
  constexpr std::size_t kBig = (100u << 10) + 1;  // 26 pages once rounded
  void* p = arena.allocate(0, kBig, 64);
  ArenaStats s = arena.stats();
  EXPECT_EQ(s.chunks, 1u);
  EXPECT_EQ(s.bytes_reserved, 26u * kPageSize);
  EXPECT_EQ(s.hugepage_fallbacks, 1u);
  EXPECT_EQ(resident_pages(p, 26u * kPageSize), 26u);

  // The big chunk is full: the next request grows the pool by one 64 KiB
  // chunk, booking a second fallback.
  (void)arena.allocate(0, 8192, 64);
  s = arena.stats();
  EXPECT_EQ(s.chunks, 2u);
  EXPECT_EQ(s.bytes_reserved, 26u * kPageSize + (64u << 10));
  EXPECT_EQ(s.hugepage_fallbacks, 2u);
  EXPECT_EQ(s.hugepage_fallbacks, s.chunks);
  EXPECT_EQ(s.node_mismatches, 0u);
  if (placement_readable(p)) {
    EXPECT_EQ(s.pages_verified, 26u + 16u);
  }
}

TEST(Arena, HugetlbChunksAreWholeHugepages) {
  // Where MAP_HUGETLB works, a chunk is whole hugepages even though the
  // growth granularity is smaller.
  if (!hugetlb_available()) GTEST_SKIP() << "no hugetlbfs reservation";
  Arena arena;
  (void)arena.allocate(0, 4096, 64);
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.hugepage_fallbacks, 0u);
  EXPECT_EQ(s.hugepages, 1u);
  EXPECT_EQ(s.hugepage_bytes, 2u << 20);
  EXPECT_EQ(s.bytes_reserved, 2u << 20);
}
#endif  // __linux__

TEST(Arena, StatsTrackReservationAndUse) {
  Arena arena;
  const ArenaStats before = arena.stats();
  (void)arena.allocate(0, 1000, 8);
  const ArenaStats after = arena.stats();
  EXPECT_GE(after.bytes_allocated, before.bytes_allocated + 1000);
  EXPECT_GE(after.bytes_reserved, after.bytes_allocated);
  EXPECT_GE(after.chunks, 1u);
}

TEST(Arena, GrowsBeyondOneChunk) {
  // Past half a hugepage, no chunk holds two of these requests: a 2 MiB
  // hugepage chunk and a page-rounded fallback chunk both have too little
  // left, so the pool grows on every one.
  constexpr std::size_t kBytes = (1u << 20) + 1;
  Arena arena;
  for (int i = 0; i < 4; ++i) {
    void* p = arena.allocate(0, kBytes, 64);
    std::memset(p, i, kBytes);
  }
  EXPECT_EQ(arena.stats().chunks, 4u);
}

TEST(Arena, OutOfRangeNodeIsClamped) {
  Arena arena;
  // A node id past the detected pool count lands in a valid pool rather
  // than crashing — the runtime's slot striping may exceed the node count.
  void* p = arena.allocate(/*node=*/1000, 256, 64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x11, 256);
}

TEST(Arena, DetectNodesIsAtLeastOne) {
  EXPECT_GE(Arena::detect_nodes(), 1u);
  Arena arena;
  EXPECT_GE(arena.nodes(), 1u);
}

TEST(Arena, ExplicitNodeCountHonoured) {
  ArenaConfig cfg;
  cfg.nodes = 3;
  Arena arena(cfg);
  EXPECT_EQ(arena.nodes(), 3u);
  for (NodeId n = 0; n < 3; ++n) {
    void* p = arena.allocate(n, 64, 64);
    ASSERT_NE(p, nullptr);
    std::memset(p, n, 64);
  }
}

TEST(Arena, CreateConstructsInPlace) {
  struct Pod {
    std::uint64_t a;
    std::uint32_t b;
  };
  Arena arena;
  Pod* p = arena.create<Pod>(0, Pod{7, 9});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->a, 7u);
  EXPECT_EQ(p->b, 9u);

  Pod* arr = arena.create_array<Pod>(0, 16);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(arr[i].a, 0u);  // value-initialised
    arr[i].a = static_cast<std::uint64_t>(i);
  }
  EXPECT_EQ(arr[15].a, 15u);
}

TEST(Arena, ExternalModePlacesIntoCallerStorage) {
  // Segment-backed mode (what src/shm/ uses to lay out a mapped segment):
  // every allocation must land inside the caller's buffer, aligned, and
  // the destructor must not touch the storage.
  alignas(64) static std::byte storage[4096];
  std::memset(storage, 0, sizeof(storage));
  {
    Arena arena(storage, sizeof(storage));
    EXPECT_EQ(arena.nodes(), 1u);
    for (const std::size_t align : {8u, 64u, 256u}) {
      auto* p = static_cast<std::byte*>(arena.allocate(0, align, align));
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
      EXPECT_GE(p, storage);
      EXPECT_LE(p + align, storage + sizeof(storage));
      std::memset(p, 0xEE, align);
    }
    // Node ids are ignored (one pool): a wild node still lands in bounds.
    auto* q = static_cast<std::byte*>(arena.allocate(7, 64, 64));
    EXPECT_GE(q, storage);
    EXPECT_LT(q, storage + sizeof(storage));

    const ArenaStats s = arena.stats();
    EXPECT_EQ(s.bytes_reserved, sizeof(storage));
    EXPECT_EQ(s.chunks, 1u);
    EXPECT_EQ(s.hugepages, 0u);
  }
  // The arena is gone; the storage (and what was written) survives.
  EXPECT_EQ(storage[0], std::byte{0xEE});
}

TEST(Arena, ExternalModeRefusesGrowth) {
  alignas(64) std::byte storage[256];
  Arena arena(storage, sizeof(storage));
  (void)arena.allocate(0, 128, 64);
  // A fixed segment cannot grow: exhaustion throws instead of remapping.
  EXPECT_THROW((void)arena.allocate(0, 4096, 64), std::bad_alloc);
}

TEST(Arena, SingleNodeContainerReportsNoMismatches) {
  // Placement verification on the common CI box (one node, or no NUMA
  // syscalls at all) must report zero mismatches: an unverifiable page is
  // unknown, not wrong.
  Arena arena;
  (void)arena.allocate(0, 1 << 20, 64);
  EXPECT_EQ(arena.stats().node_mismatches, 0u);
}

}  // namespace
}  // namespace hppc::mem
