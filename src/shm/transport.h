// The cross-process xcall transport: warm null PPCs between PROCESSES
// with zero locks and zero allocations.
//
// One Server process creates the segment (shm/layout.h) and polls it; up
// to kMaxShmPeers Peer processes attach, each claiming a private lane — an
// rt::XcallRing placed in the segment. A lane runs the in-process cell
// format and completion protocol (rt/xcall.h) unchanged. A warm call is:
//
//   peer:   claim+publish one ring cell (XcallRing::try_post: a plain
//           store of the lane's tail, one release store of the cell seq),
//           then spin-then-sched_yield on the cell's state word
//           (rt::wait_complete with a never-park budget);
//   server: drain the lane (XcallRing::drain), dispatch through a flat
//           function-pointer table — the frame-ABI shape, no
//           std::function, no worker/CD machinery — on a server-local
//           RegSet, then store the reply into the cell, store its state
//           word to done and retire the cell, back to back: plain
//           stores, no RMW on the line the peer spins on;
//   peer:   observe done (acquire) and copy the reply out of the cell.
//           Nothing else: the server already handed the slot back, and
//           the peer, the lane's only producer, posts nothing into it
//           before the copy is done.
//
// No step locks, no step allocates, and the only line that crosses
// between the processes on a warm call is the cell (plus the peer's own
// heartbeat line): each cursor line and each peer-table line has a single
// writer (see the ownership map in layout.h), and the server polls through
// pointers it resolved at create time, never through offsets re-read from
// the segment. Waiters never park. A shared (non-private) futex on the
// segment word would wake across the processes, but with one server
// thread a wake costs more than it saves: ~2 us for the waker and ~6 us
// until the sleeper runs on a 4-vCPU VM, and parking after one spin window
// cut shm_bulk throughput by 5-19% with two peers and by 43-49% with four
// to six (p50 8-12x), for a 42-51% cut in cpu_ns_per_op (see layout.h).
// On a multi-core host the reply usually lands inside the waiter's spin
// window; a waiter that outlasts it yields the CPU between polls.
//
// Liveness (the hard-kill extension): each peer's PeerSlot carries a
// heartbeat word it refreshes on attach, per call, and while it waits. The
// server's reap_dead_peers() treats a stale heartbeat as suspicion
// (booked as heartbeats_missed) and kill(pid, 0) == ESRCH as confirmed
// death: every published in-flight cell completes with kCallAborted in
// place, nothing executes, the ring is re-armed (seq words and cursors
// only), the peer's grants are revoked and unmapped, and the slot returns
// to kPeerFree with its generation bumped (booked as peer_deaths). That is
// the paper's hard-kill reclamation (§4.5.2) extended to process death. A
// peer reaped while merely wedged sees the generation move: its in-flight
// call returns kCallAborted, and it never touches the lane again.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "obs/counters.h"
#include "ppc/regs.h"
#include "rt/xcall.h"
#include "shm/copy.h"
#include "shm/layout.h"
#include "shm/segment.h"

namespace hppc::rt {
class Runtime;
}

namespace hppc::shm {

class Server;

/// What an shm handler sees. `copy` is the grant-checked bulk engine —
/// handlers move big payloads through it instead of the ring. It
/// resolves only the calling lane's own regions.
struct ShmCtx {
  Server* server = nullptr;
  CopyServer* copy = nullptr;
  std::uint32_t peer = 0;      // lane index of the calling peer
  ProgramId caller = 0;        // the peer's program token (§4.1)
};

/// A raw function pointer, the frame-ABI handler shape: `self` is the
/// pointer registered at bind time, regs is in/out, the returned Status
/// comes back in the caller's cell with the reply.
using ShmFn = Status (*)(void* self, ShmCtx& ctx, ppc::RegSet& regs);

/// Entry-point index into the server's dispatch table (low 16 bits of the
/// cell ep lane, same packing as in-process cells).
using ShmEp = std::uint32_t;

class Server {
 public:
  /// Create and lay out the transport segment `name`. The layout is
  /// placed by a segment-backed mem::Arena; all offsets land in the
  /// header, and the magic word is release-published last.
  Server(const std::string& name);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register a handler; returns its entry point (dense from 1 — 0 is
  /// reserved as "unbound" so a zeroed cell can never dispatch).
  ShmEp bind(ShmFn fn, void* self);

  /// Drain every attached peer's lane once. Single consumer: only the
  /// serving process's polling thread may call this (and reap_dead_peers
  /// below — same thread). Returns cells executed or refused.
  std::size_t poll();

  /// Serve until stop() (local or cross-process via request_stop) is
  /// raised: poll, reap every `reap_every` polls, sched_yield when idle.
  std::size_t serve(std::uint64_t dead_after_ns,
                    std::uint32_t reap_every = 1024);

  /// Sweep the peer table for death: a peer whose heartbeat is older than
  /// `dead_after_ns` books heartbeats_missed; if its pid is gone (ESRCH)
  /// — or the heartbeat is 8x past the threshold, covering pid reuse —
  /// the lane is reaped as described in the file comment. Returns peers
  /// reaped. Same-thread as poll().
  std::size_t reap_dead_peers(std::uint64_t dead_after_ns);

  /// Raise the segment's cooperative stop flag (peers poll it too).
  void request_stop();

  /// Adopt the segment's cancel pool, as lay_out placed it, into `rt`:
  /// after this, rt.cancel_token_create()/cancel() operate on the
  /// segment-resident flags, so a token minted in EITHER process aborts
  /// calls in both — this server's drain checks the same flags rt's
  /// drain-side sweep reads. No offset is re-read from the segment.
  void adopt_cancel_pool_into(rt::Runtime& rt);

  Segment& segment() { return seg_; }
  const obs::SlotCounters& counters() const { return counters_; }
  std::uint32_t attached_peers() const;

 private:
  friend class Peer;

  bool stop_requested() const;

  ShmHeader* header() const {
    return reinterpret_cast<ShmHeader*>(seg_.base());
  }
  std::size_t drain_lane(std::uint32_t peer_idx);
  void reap_lane(std::uint32_t peer_idx);

  struct ShmService {
    std::atomic<ShmFn> fn{nullptr};
    void* self = nullptr;
  };

  /// Process-private layout, resolved once at create time: a peer that
  /// rewrites the segment's offsets cannot move what the server touches.
  struct Layout {
    PeerSlot* peers;       // [kMaxShmPeers]
    rt::XcallRing* lanes;  // [kMaxShmPeers]
    RegionSlot* regions;   // [kMaxShmRegions]
    rt::CancelPool cancel;
  };
  /// Write the header and lay the tables out behind it.
  static Layout lay_out(Segment& seg);

  Segment seg_;
  const Layout lay_;
  CopyServer copy_;
  obs::SlotCounters counters_;
  std::array<ShmService, kMaxShmEps> services_{};
  std::uint32_t next_ep_ = 1;
};

class Peer {
 public:
  /// Map the transport segment `name` (created by a Server, possibly in
  /// another process) and claim a lane. `program` is this peer's §4.1
  /// program token, carried in every cell.
  Peer(const std::string& name, ProgramId program);
  ~Peer();

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  /// Synchronous cross-process PPC: post one cell on this peer's lane and
  /// spin-then-yield on its state word; the reply comes back in the cell.
  /// Warm path: zero locks, zero allocations (one cell claim+publish, one
  /// spin, one reply copy). One thread at a time: the peer is its lane's
  /// only producer. `token` (from cancel_token_create) rides the cell
  /// ep lane; 0 = not cancellable. kOverloaded when the lane ring is full;
  /// kCallAborted, without touching the lane, once this peer was reaped.
  Status call(ShmEp ep, ppc::RegSet& regs, std::uint32_t token = 0);

  /// Cross-process cancellation over the segment-resident pool: tokens
  /// minted here are honoured by the server's drain (and by any runtime
  /// that adopted the pool). One fetch_add / one flag store.
  std::uint32_t cancel_token_create();
  void cancel(std::uint32_t token);

  /// Grant the server read/write rights over a fresh region of `bytes`
  /// (a new shm segment this peer creates and maps). Returns the region
  /// id — one of this lane's kShmRegionsPerPeer ids — or kMaxShmRegions
  /// ( = failure: all of them granted). The mapped bytes are reachable at
  /// region_base().
  std::uint32_t grant_region(std::size_t bytes,
                             std::uint32_t rights = kRegionRead |
                                                    kRegionWrite);
  /// Revoke a grant: bumps the generation (the server's cached mapping
  /// goes stale), frees the slot, unmaps and unlinks the backing segment.
  void revoke_region(std::uint32_t region);
  std::byte* region_base(std::uint32_t region);

  /// Refresh this peer's liveness word (also refreshed by every call).
  void heartbeat();

  /// Raise the segment's cooperative stop flag.
  void request_stop();

  /// Adopt the segment's cancel pool, as resolved at attach, into a
  /// runtime embedded in THIS process (mirror of
  /// Server::adopt_cancel_pool_into).
  void adopt_cancel_pool_into(rt::Runtime& rt);

  std::uint32_t peer_index() const { return idx_; }
  const obs::SlotCounters& counters() const { return counters_; }
  Segment& segment() { return seg_; }

 private:
  ShmHeader* header() const {
    return reinterpret_cast<ShmHeader*>(seg_.base());
  }
  /// Has the server reaped this peer (slot generation moved)? Sticky.
  bool reaped();

  /// Wait-ladder rounds between heartbeat refreshes (a power of two).
  static constexpr std::uint32_t kHeartbeatRounds = 256;

  Segment seg_;
  obs::SlotCounters counters_;
  ProgramId program_ = 0;
  std::uint32_t idx_ = 0;  // claimed PeerSlot / lane index
  std::uint32_t generation_ = 0;
  bool reaped_ = false;
  rt::XcallRing* ring_ = nullptr;  // process-local pointers resolved once
  PeerSlot* slot_ = nullptr;
  RegionSlot* region_table_ = nullptr;  // [kMaxShmRegions]
  rt::CancelPool cancel_;
  std::array<Segment, kMaxShmRegions> regions_{};  // this peer's grants
};

}  // namespace hppc::shm
