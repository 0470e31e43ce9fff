// The cross-process segment layout: every structure the shm transport
// shares between a server process and its peers, as PODs linked by BYTE
// OFFSETS from the segment base — never raw pointers, because the segment
// maps at a different virtual address in every process that opens it.
//
// This is the paper's PPC data area crossed with the xcall layer: the
// same Vyukov ring-cell protocol rt/xcall.h runs between slots of one
// process, laid out inside an shm_open/mmap segment so a caller PROCESS
// and a server PROCESS exchange warm null PPCs with zero locks and zero
// allocations. The wait-block done word reuses rt::XcallWait's kDoneBit,
// with one cross-process amendment: nobody ever parks or abandons.
// std::atomic::wait lowers to FUTEX_WAIT_PRIVATE, which does not cross
// address spaces, so shm waiters spin-then-sched_yield until the server
// completes them (a dead peer's calls are completed by the reaper).
//
// Creation protocol: the server process lays the segment out through a
// segment-backed mem::Arena (mem/arena.h), records every offset in the
// ShmHeader, and publishes the header with a release store of the magic
// word — an opener acquire-loads the magic before trusting any offset.
// The server itself keeps process-private pointers from create time and
// never re-reads an offset from the (peer-writable) segment.
//
// Ownership map (who writes what, and which lines move per call): the
// only lines that cross between peer and server on a warm call are the
// ring cell and the wait block. Every other line a call touches is
// written by one side only and read by the other rarely or never:
//   * LaneHeader line 0 (enqueue_pos, wait_free_off) — the peer, twice
//                          per call; the server reads it only when
//                          reaping;
//   * LaneHeader line 1 (dequeue_pos) — the server, once per drain batch;
//   * LaneHeader line 2 (ring_off, waits_off) — written at create time,
//                          read by a peer at attach;
//   * PeerSlot line 0 (state, pid, generation, program) — CAS-claimed by
//                          attaching peers, reset by the server's reaper;
//                          the server loads `state` every poll pass;
//   * PeerSlot line 1 (heartbeat_ns) — the peer, once per call; read by
//                          the reaper;
//   * lane ring cells    — the owning peer posts, the server drains
//                          (per-peer lanes, so rings are SPSC here, but
//                          they keep the MPSC claim protocol of the
//                          in-process layer);
//   * wait blocks        — the owning peer acquires/releases; the server
//                          writes the reply and the done word back to
//                          back; the reaper rebuilds the free list
//                          wholesale after a death;
//   * cancel pool        — any process raises flags; the server's drain
//                          sweep reads them (rt::Runtime::adopt_cancel_pool
//                          points a runtime at this pool);
//   * RegionSlot         — CAS-claimed by granting peers, invalidated by
//                          revoke or by the reaper.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/cacheline.h"
#include "common/types.h"
#include "ppc/regs.h"
#include "rt/xcall.h"

namespace hppc::shm {

inline constexpr std::uint64_t kShmMagic = 0x48505043'53484d31ull;  // HPPCSHM1
inline constexpr std::uint32_t kShmVersion = 1;

/// Peers one segment can host (one call lane each).
inline constexpr std::uint32_t kMaxShmPeers = 8;
/// Cells per peer lane; power of two (index wrap is a mask).
inline constexpr std::uint32_t kShmRingCapacity = 64;
/// Wait blocks per lane: one per cell is exactly enough, because a call
/// holds one cell and one wait for its whole lifetime.
inline constexpr std::uint32_t kShmWaitsPerLane = kShmRingCapacity;
/// Grantable bulk-data regions per segment.
inline constexpr std::uint32_t kMaxShmRegions = 32;
/// Entries in the server's shm dispatch table.
inline constexpr std::uint32_t kMaxShmEps = 64;

/// Offset sentinel: 0 is the header itself, so no linked structure ever
/// legitimately sits there.
inline constexpr std::uint64_t kNullOff = 0;

// -- wait blocks ------------------------------------------------------------

/// The cross-process completion block: exactly one cache line holding the
/// done word, the lane free-list link and the inline reply. The server
/// runs the handler on a local RegSet, then stores the reply and the done
/// word back to back, so the waiter's line moves once per call. The done
/// word uses rt::XcallWait's kDoneBit; shm waiters never park or abandon.
struct alignas(kHostCacheLine) ShmWait {
  static constexpr std::uint32_t kDoneBit = rt::XcallWait::kDoneBit;

  std::atomic<std::uint32_t> done{0};
  std::uint32_t pad = 0;
  std::uint64_t next_off = kNullOff;  // lane free-list link (peer-private)
  ppc::RegSet reply;                  // server writes the reply words here

  /// Server side: publish the result. No notify — shm waiters never park.
  void complete(Status rc) {
    done.store(kDoneBit | static_cast<std::uint32_t>(rc),
               std::memory_order_release);
  }

  bool completed() const {
    return (done.load(std::memory_order_acquire) & kDoneBit) != 0;
  }
  Status result() const {
    return static_cast<Status>(done.load(std::memory_order_acquire) & 0xFF);
  }
  void reset() { done.store(0, std::memory_order_relaxed); }
};
static_assert(sizeof(ShmWait) == kHostCacheLine, "one wait, one cache line");
static_assert(std::is_trivially_destructible_v<ShmWait>);

// -- ring cells -------------------------------------------------------------

/// One lane cell: the 64-byte XcallCell with the wait pointer replaced by
/// a segment offset. `ep` uses the in-process packing (rt::cell_pack_ep —
/// entry point low, cancel-token index at kCellTokenShift, kCellBulkBit);
/// `aux` is the spare 8-byte lane (op word for future frame-style calls).
struct alignas(kHostCacheLine) ShmCell {
  std::atomic<std::uint64_t> seq{0};
  std::uint32_t ep = 0;
  std::uint32_t caller = 0;    // the posting peer's program token (§4.1)
  std::uint64_t wait_off = kNullOff;
  std::uint64_t aux = 0;
  ppc::RegSet regs;
};
static_assert(sizeof(ShmCell) == 64, "one cell, one cache line");
static_assert(std::is_trivially_destructible_v<ShmCell>);

// -- lanes ------------------------------------------------------------------

/// One peer's call lane: a bounded ring of ShmCells plus that peer's wait
/// pool. Each line has one writer: the peer's line (enqueue cursor and
/// wait free list), the server's line (dequeue cursor), and the layout
/// line written once at create time — so the poster and the drainer never
/// bounce a line that isn't a cell or a wait.
struct LaneHeader {
  alignas(kHostCacheLine) std::atomic<std::uint64_t> enqueue_pos{0};
  /// Head of the lane's wait free list (offset; kNullOff = empty). Owned
  /// by the attached peer while it lives; rebuilt wholesale by the
  /// server's reaper after the peer dies.
  std::uint64_t wait_free_off = kNullOff;
  alignas(kHostCacheLine) std::atomic<std::uint64_t> dequeue_pos{0};
  alignas(kHostCacheLine) std::uint64_t ring_off = kNullOff;   // ShmCell[kShmRingCapacity]
  std::uint64_t waits_off = kNullOff;  // ShmWait[kShmWaitsPerLane]
};
static_assert(std::is_trivially_destructible_v<LaneHeader>);

// -- peers ------------------------------------------------------------------

enum PeerState : std::uint32_t {
  kPeerFree = 0,
  kPeerAttaching = 1,  // CAS-claimed, lane not yet ready for draining
  kPeerAttached = 2,
  kPeerDead = 3,       // reaper is tearing the lane down
};

/// One peer's table entry: a line of its own, so one peer's attach or
/// reap never disturbs the line the server polls for another, plus a
/// second line for the heartbeat the peer stores on every call.
struct alignas(kHostCacheLine) PeerSlot {
  std::atomic<std::uint32_t> state{kPeerFree};
  std::atomic<std::uint32_t> pid{0};
  /// Bumped every reap/detach, so a stale peer handle can be recognised.
  std::atomic<std::uint32_t> generation{0};
  std::uint32_t program = 0;  // the peer's program token, set at attach
  /// CLOCK_MONOTONIC nanoseconds of the peer's last sign of life. The
  /// peer stores on attach, after every call, and from heartbeat(); the
  /// server's reaper compares against its own clock (same host, same
  /// clock — that is the point of shared memory).
  alignas(kHostCacheLine) std::atomic<std::uint64_t> heartbeat_ns{0};
};
static_assert(sizeof(PeerSlot) == 2 * kHostCacheLine);
static_assert(std::is_trivially_destructible_v<PeerSlot>);

// -- granted bulk-data regions ----------------------------------------------

enum RegionState : std::uint32_t {
  kRegionFree = 0,
  kRegionGranting = 1,  // CAS-claimed, backing segment not yet sized
  kRegionGranted = 2,
};

inline constexpr std::uint32_t kRegionRead = 1;   // server may read
inline constexpr std::uint32_t kRegionWrite = 2;  // server may write

/// One granted region: a SEPARATE shm segment (named by region_name() in
/// segment.h) the granting peer created and the server maps on first use.
/// The slot carries everything the server needs to map and validate it;
/// the grant's byte range and rights bound every descriptor resolution,
/// which is the paper's grant check (§4.2) verbatim.
struct RegionSlot {
  std::atomic<std::uint32_t> state{kRegionFree};
  std::atomic<std::uint32_t> generation{0};  // bumped on revoke/reap
  std::uint32_t owner_peer = 0;              // peer index that granted it
  std::uint32_t rights = 0;                  // kRegionRead | kRegionWrite
  std::uint64_t bytes = 0;
};
static_assert(std::is_trivially_destructible_v<RegionSlot>);

// -- the header -------------------------------------------------------------

/// Page 0 of the segment. Offsets are bytes from the segment base. The
/// magic word is written LAST (release) by the creator and checked FIRST
/// (acquire) by openers, so a fully published header is the only thing an
/// opener can ever act on.
struct ShmHeader {
  std::atomic<std::uint64_t> magic{0};
  std::uint32_t version = 0;
  std::uint32_t max_peers = 0;
  std::uint32_t ring_capacity = 0;
  std::uint32_t waits_per_lane = 0;
  std::uint32_t max_regions = 0;
  std::atomic<std::uint32_t> server_pid{0};
  std::uint64_t total_bytes = 0;
  /// Cooperative shutdown flag: the server raises it; peers and helper
  /// processes poll it. (Uncooperative death is what heartbeats catch.)
  std::atomic<std::uint32_t> stop{0};
  std::uint32_t pad0 = 0;

  std::uint64_t peers_off = kNullOff;    // PeerSlot[max_peers]
  std::uint64_t lanes_off = kNullOff;    // LaneHeader[max_peers]
  std::uint64_t regions_off = kNullOff;  // RegionSlot[max_regions]
  /// The segment-resident cancel pool: flags_off names
  /// atomic<u32>[rt::kMaxCancelTokens] and cursor_off the shared token
  /// allocator — the storage rt::Runtime::adopt_cancel_pool() points a
  /// runtime at, which is what makes cancel(token) cross the process
  /// boundary (satellite of the transport: the server's drain-side sweep
  /// reads the same flag the remote canceller raised).
  std::uint64_t cancel_flags_off = kNullOff;
  std::uint64_t cancel_cursor_off = kNullOff;

  /// Pad to two cache lines so the arena laying out the rest of the
  /// segment starts line-aligned (transport.cpp asserts this).
  std::uint8_t reserved[40] = {};
};
static_assert(sizeof(ShmHeader) % kHostCacheLine == 0);
static_assert(std::is_trivially_destructible_v<ShmHeader>);

}  // namespace hppc::shm
