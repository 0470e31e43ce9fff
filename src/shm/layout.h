// The cross-process segment layout: every structure the shm transport
// shares between a server process and its peers, as PODs linked by BYTE
// OFFSETS from the segment base — never raw pointers, because the segment
// maps at a different virtual address in every process that opens it.
//
// This is the paper's PPC data area crossed with the xcall layer: each
// peer's call lane IS an rt::XcallRing (rt/xcall.h) laid out inside an
// shm_open/mmap segment, so a caller PROCESS and a server PROCESS run the
// same cell format and completion protocol as two slots of one process —
// the reply comes back in the cell that carried the call. One amendment
// across the process boundary: nobody parks; shm waiters spin-then-
// sched_yield until the server completes them (a dead peer's calls are
// completed by the reaper). A futex could reach the server — FUTEX_WAIT/
// FUTEX_WAKE without FUTEX_PRIVATE_FLAG work on a MAP_SHARED segment
// word — but it costs too much with one server thread. On a 4-vCPU VM a
// FUTEX_WAKE costs the waker ~2 us and the sleeper resumes ~6 us later.
// Parking shm_bulk peers after one spin window cut its cpu_ns_per_op by
// 42-51% but its throughput by 5-19% with two peers, and hostbench
// throughput by 49% and 43% with four and six peers (p50 8-12x): the one
// saturated server pays a kick for almost every call.
//
// Creation protocol: the server process lays the segment out through a
// segment-backed mem::Arena (mem/arena.h), records every offset in the
// ShmHeader, and publishes the header with a release store of the magic
// word — an opener acquire-loads the magic before trusting any offset.
// The server itself keeps process-private pointers from create time and
// never re-reads an offset from the (peer-writable) segment; no cell
// carries an offset, so nothing a peer writes can make the server write
// outside that peer's own lane.
//
// Ownership map (who writes what, and which lines move per call): the
// only line that crosses between peer and server on a warm call is the
// ring cell, plus the peer's heartbeat store. Every other line a call
// touches is written by one side only and read by the other rarely or
// never:
//   * lane tail line (XcallRing's producer cursor) — the peer, once per
//                          call, with a plain store;
//   * lane head line (XcallRing's consumer cursor) — the server, once per
//                          drained cell;
//   * lane ring cells    — the owning peer posts, the server drains,
//                          completes and retires in place (one producer
//                          per lane, like every XcallRing);
//   * PeerSlot line 0 (state, pid, generation, program) — CAS-claimed by
//                          attaching peers, reset by the server's reaper;
//                          the server loads `state` every poll pass and
//                          the peer loads `generation` twice per call;
//   * PeerSlot line 1 (heartbeat_ns) — the peer, once per call; read by
//                          the reaper;
//   * cancel pool        — any process raises flags; the server's drain
//                          sweep reads them (rt::Runtime::adopt_cancel_pool
//                          points a runtime at this rt::CancelPool);
//   * RegionSlot         — CAS-claimed by granting peers, invalidated by
//                          revoke or by the reaper; its owner is its id's
//                          lane (region_lane), never a field a peer wrote.
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
/// v2: lanes are rt::XcallRings and the reply comes back in the cell (no
/// wait blocks). v3: the server retires every cell it drains; the peer
/// writes nothing after posting (a v2 peer would still release, a v2
/// server would never retire a sync cell). v4: region ids are partitioned
/// by lane; RegionSlot carries no owner.
inline constexpr std::uint32_t kShmVersion = 4;

/// Peers one segment can host (one call lane each).
inline constexpr std::uint32_t kMaxShmPeers = 8;
/// Cells per peer lane.
inline constexpr std::uint32_t kShmRingCapacity = rt::XcallRing::kCapacity;
/// Grantable bulk-data regions per segment.
inline constexpr std::uint32_t kMaxShmRegions = 32;
/// Regions per lane: ids [p·K, (p+1)·K) belong to lane p.
inline constexpr std::uint32_t kShmRegionsPerPeer =
    kMaxShmRegions / kMaxShmPeers;
static_assert(kMaxShmRegions % kMaxShmPeers == 0);

/// The lane a region id belongs to (kMaxShmPeers or more for no lane).
inline constexpr std::uint32_t region_lane(std::uint32_t region) {
  return region / kShmRegionsPerPeer;
}
/// Entries in the server's shm dispatch table.
inline constexpr std::uint32_t kMaxShmEps = 64;

/// Offset sentinel: 0 is the header itself, so no linked structure ever
/// legitimately sits there.
inline constexpr std::uint64_t kNullOff = 0;

// A lane is placed in the segment as it is: no pointers, no destructor.
static_assert(std::is_trivially_destructible_v<rt::XcallRing>);

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
  /// sizeof(rt::XcallCell): a trace build's cells are two lines, so a
  /// peer built the other way must refuse the segment.
  std::uint32_t cell_bytes = 0;
  std::uint32_t max_regions = 0;
  std::atomic<std::uint32_t> server_pid{0};
  std::uint64_t total_bytes = 0;
  /// Cooperative shutdown flag: the server raises it; peers and helper
  /// processes poll it. (Uncooperative death is what heartbeats catch.)
  std::atomic<std::uint32_t> stop{0};
  std::uint32_t pad0 = 0;

  std::uint64_t peers_off = kNullOff;    // PeerSlot[max_peers]
  std::uint64_t lanes_off = kNullOff;    // rt::XcallRing[max_peers]
  std::uint64_t regions_off = kNullOff;  // RegionSlot[max_regions]
  /// The segment-resident cancel pool (rt::CancelPool): flags_off names
  /// atomic<u32>[rt::kMaxCancelTokens] and cursor_off the shared token
  /// allocator. Peers resolve both once, at attach; the server keeps the
  /// pool it laid out and never reads them back. The server's drain reads
  /// the same flag a remote canceller raised, which is what makes
  /// cancel(token) cross the process boundary.
  std::uint64_t cancel_flags_off = kNullOff;
  std::uint64_t cancel_cursor_off = kNullOff;

  /// Pad to two cache lines so the arena laying out the rest of the
  /// segment starts line-aligned (transport.cpp asserts this).
  std::uint8_t reserved[40] = {};
};
static_assert(sizeof(ShmHeader) % kHostCacheLine == 0);
static_assert(std::is_trivially_destructible_v<ShmHeader>);

}  // namespace hppc::shm
