#include "mem/arena.h"

#include <cstdio>
#include <cstring>

#ifdef __linux__
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#include <cstdlib>
#endif

namespace hppc::mem {
namespace {

constexpr std::size_t round_up(std::size_t v, std::size_t a) {
  return (v + a - 1) & ~(a - 1);
}

/// Granularity of pool growth: a request that does not fit the pool's
/// current chunk maps max(kChunkBytes, request) rounded up to the page, or
/// to whole hugepages when the chunk is hugepage-backed.
constexpr std::size_t kChunkBytes = 64u << 10;
/// The explicit hugepage size MAP_HUGETLB maps (x86-64 default).
constexpr std::size_t kHugepageBytes = 2u << 20;

#ifdef __linux__
// numaif.h is not guaranteed present (libnuma-dev is optional), so the two
// mempolicy syscalls are issued raw with locally defined constants. Every
// failure mode (ENOSYS, seccomp EPERM, single-node kernels) degrades to
// "no placement guarantee", never to an allocation failure.
constexpr int kMpolBind = 2;
constexpr unsigned kMpolFNode = 1u << 0;
constexpr unsigned kMpolFAddr = 1u << 1;

long sys_mbind(void* addr, unsigned long len, int mode,
               const unsigned long* nodemask, unsigned long maxnode,
               unsigned flags) {
#ifdef SYS_mbind
  return ::syscall(SYS_mbind, addr, len, mode, nodemask, maxnode, flags);
#else
  (void)addr; (void)len; (void)mode; (void)nodemask; (void)maxnode; (void)flags;
  return -1;
#endif
}

long sys_get_mempolicy(int* mode, unsigned long* nodemask,
                       unsigned long maxnode, void* addr, unsigned flags) {
#ifdef SYS_get_mempolicy
  return ::syscall(SYS_get_mempolicy, mode, nodemask, maxnode, addr, flags);
#else
  (void)mode; (void)nodemask; (void)maxnode; (void)addr; (void)flags;
  return -1;
#endif
}
#endif  // __linux__

}  // namespace

std::uint32_t Arena::detect_nodes() {
#ifdef __linux__
  std::uint32_t n = 0;
  char path[64];
  for (;;) {
    std::snprintf(path, sizeof path, "/sys/devices/system/node/node%u", n);
    struct stat st;
    if (::stat(path, &st) != 0) break;
    ++n;
    if (n >= 1024) break;  // sanity bound
  }
  return n == 0 ? 1 : n;
#else
  return 1;
#endif
}

Arena::Arena(ArenaConfig cfg)
    : pools_(cfg.nodes == 0 ? detect_nodes() : cfg.nodes) {}

Arena::Arena(std::byte* base, std::size_t bytes) {
  // Segment-backed mode: one pool, pre-seeded with the caller's region as
  // its only — unowned — chunk. map_chunk() is never reached (growth
  // refuses below).
  external_ = true;
  pools_ = std::vector<NodePool>(1);
  auto* chunk = new Chunk{};
  chunk->base = base;
  chunk->size = bytes;
  chunk->owned = false;
  NodePool& pool = pools_[0];
  pool.chunks = chunk;
  pool.cur = base;
  pool.left = bytes;
  bytes_reserved_.fetch_add(bytes, std::memory_order_relaxed);
  chunks_.fetch_add(1, std::memory_order_relaxed);
}

Arena::~Arena() {
  for (NodePool& pool : pools_) {
    Chunk* c = pool.chunks;
    while (c != nullptr) {
      Chunk* next = c->next;
      if (c->owned) {
#ifdef __linux__
        ::munmap(c->base, c->size);
#else
        std::free(c->base);
#endif
      }
      delete c;
      c = next;
    }
  }
}

Arena::Chunk* Arena::map_chunk(NodeId node, std::size_t min_bytes) {
  // A segment-backed arena has exactly the storage it was constructed
  // over: the segment's cross-process layout is fixed at creation, so
  // growing past it can only produce private memory the other side will
  // never see. Refuse instead.
  if (external_) throw std::bad_alloc{};

  const std::size_t want = min_bytes > kChunkBytes ? min_bytes : kChunkBytes;

#ifdef __linux__
  std::size_t size = round_up(want, kHugepageBytes);
  void* base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
  const bool huge = base != MAP_FAILED;
  if (!huge) {
    hugepage_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    size = round_up(want, kPageSize);
    base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc{};
  }

  // Bind before faulting: placement must come from policy, not from
  // whichever CPU happens to touch the chunk first.
  unsigned long mask = 1ul << (node % (sizeof(unsigned long) * 8));
  if (sys_mbind(base, size, kMpolBind, &mask, sizeof(unsigned long) * 8, 0) !=
      0) {
    mbind_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  // Pre-fault every page so the warm path never takes a minor fault, and
  // so get_mempolicy below reports where pages actually landed.
  const std::size_t step = huge ? kHugepageBytes : kPageSize;
  auto* bytes = static_cast<std::byte*>(base);
  for (std::size_t off = 0; off < size; off += step) {
    bytes[off] = std::byte{0};
  }

  std::uint64_t mismatches = 0;
  std::uint64_t verified = 0;
  for (std::size_t off = 0; off < size; off += step) {
    int where = -1;
    if (sys_get_mempolicy(&where, nullptr, 0, bytes + off,
                          kMpolFNode | kMpolFAddr) != 0) {
      // Syscall filtered or unsupported: placement is unknown, which is
      // not the same as wrong — count nothing.
      break;
    }
    ++verified;
    if (where >= 0 && static_cast<NodeId>(where) != node) ++mismatches;
  }
  pages_verified_.fetch_add(verified, std::memory_order_relaxed);
  if (mismatches != 0) {
    node_mismatches_.fetch_add(mismatches, std::memory_order_relaxed);
  }
#else
  bool huge = false;
  std::size_t size = round_up(want, kPageSize);
  void* base = std::aligned_alloc(kPageSize, size);
  if (base == nullptr) throw std::bad_alloc{};
  std::memset(base, 0, size);
#endif

  auto* chunk = new Chunk{};
  chunk->base = static_cast<std::byte*>(base);
  chunk->size = size;
  chunk->huge = huge;

  bytes_reserved_.fetch_add(size, std::memory_order_relaxed);
  chunks_.fetch_add(1, std::memory_order_relaxed);
  if (huge) {
    hugepage_bytes_.fetch_add(size, std::memory_order_relaxed);
    hugepages_.fetch_add(size / kHugepageBytes, std::memory_order_relaxed);
  }
  return chunk;
}

void* Arena::allocate(NodeId node, std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  NodePool& pool = pools_[node % pools_.size()];

  std::lock_guard<std::mutex> lk(pool.mu);
  auto aligned = [&](std::byte* p) {
    auto v = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<std::byte*>(round_up(v, align));
  };

  std::byte* p = pool.cur != nullptr ? aligned(pool.cur) : nullptr;
  if (p == nullptr ||
      static_cast<std::size_t>(p - pool.cur) + bytes > pool.left) {
    // Chunks start page-aligned, so only a wider alignment needs slack.
    Chunk* chunk = map_chunk(node % pools_.size(),
                             align <= kPageSize ? bytes : bytes + align);
    chunk->next = pool.chunks;
    pool.chunks = chunk;
    pool.cur = chunk->base;
    pool.left = chunk->size;
    p = aligned(pool.cur);
  }

  const std::size_t consumed = static_cast<std::size_t>(p - pool.cur) + bytes;
  pool.cur += consumed;
  pool.left -= consumed;
  bytes_allocated_.fetch_add(bytes, std::memory_order_relaxed);
  return p;
}

ArenaStats Arena::stats() const {
  ArenaStats s;
  s.bytes_reserved = bytes_reserved_.load(std::memory_order_relaxed);
  s.bytes_allocated = bytes_allocated_.load(std::memory_order_relaxed);
  s.hugepages = hugepages_.load(std::memory_order_relaxed);
  s.hugepage_bytes = hugepage_bytes_.load(std::memory_order_relaxed);
  s.hugepage_fallbacks =
      hugepage_fallbacks_.load(std::memory_order_relaxed);
  s.node_mismatches = node_mismatches_.load(std::memory_order_relaxed);
  s.pages_verified = pages_verified_.load(std::memory_order_relaxed);
  s.mbind_failures = mbind_failures_.load(std::memory_order_relaxed);
  s.chunks = chunks_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hppc::mem
