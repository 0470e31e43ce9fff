// Lock-free cross-slot call channels (xcall).
//
// The paper's fast path covers same-processor calls only; cross-processor
// traffic goes through "interrupt + remote queue" (§4.5.2). The host
// runtime used to model that with a Mailbox<std::function<void()>> — a
// Treiber stack that heap-allocates a node per message — so every cross-
// slot operation paid an allocation plus unbounded CAS contention. This
// header replaces that hot path with a per-slot bounded MPSC ring of
// fixed-size, cache-line-sized POD cells (caller program, entry point,
// inline RegSet payload, completion state word), in the style of the
// shared-memory rings the memory-offloading IPC literature places between
// "same-core procedure call" and "kernel message queue".
//
// Three pieces:
//
//   XcallRing  — a Vyukov-style bounded multi-producer/single-consumer
//                ring. Producers claim a cell with one CAS and publish it
//                with one release store; the consumer drains every ready
//                cell in a batch. No allocation, ever; a full ring is
//                reported to the caller, who falls back to the legacy
//                mailbox (the overflow path, now control-plane only).
//
//   SlotGate   — the slot-ownership word that makes the *adaptive* part of
//                Runtime::call_remote possible. A slot whose owning thread
//                is parked (or was never registered) publishes kIdle; a
//                remote caller may then CAS the gate to kStolen and run
//                the call directly against the target slot's pools — the
//                host analogue of LRPC thread migration — instead of
//                paying two context switches for a ring round trip. All
//                slot state handed across the gate is synchronized by the
//                acquire/release CAS pair, so single-consumer structures
//                stay single-consumer *at a time*.
//
//   The cell   — also the completion: a sync call's reply comes back in the
//                cell's RegSet and its state word moves posted → done with
//                one server exchange, so a call moves one line each way.
//                The caller waits on that word with an adaptive
//                spin→yield→park ladder (wait_complete); a waiter that
//                exhausts its yield budget parks on the word (C++20 atomic
//                wait) and the completing exchange sees the parked bit and
//                kicks it with one notify. A call owns its cell and
//                nothing else.
//
// This header is the one home of the cell format and the completion
// protocol; the in-process runtime (rt/runtime.cpp) and the cross-process
// transport (shm/transport.cpp) both run it and keep no copy.
//
// Posting: XcallRing::try_post() claims N contiguous cells (N = 1 for a
// single call) with ONE CAS and publishes the whole run with ONE release
// store (the batch doorbell) — cells after the first are published with
// relaxed stores, and the consumer's in-order acquire of the run's first
// cell carries the happens-before edge for all of them. The caller fills
// each claimed cell, so typed and frame requests share the one protocol.
//
// A warm cross-slot call — direct or ring, single or batched — performs
// ZERO heap allocations; the `mailbox_allocs` counter exists to assert
// that.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>

#include "common/cacheline.h"
#include "common/cpu_relax.h"
#include "common/status.h"
#include "common/tsc.h"
#include "common/types.h"
#include "obs/trace.h"
#include "ppc/regs.h"
#include "rt/frame_abi.h"

namespace hppc::rt {

// The spin hint moved to common/cpu_relax.h so spin loops below rt/ (the
// repl seqlock read retry) can share it; re-exported here for existing
// callers.
using ::hppc::cpu_relax;

/// The cell state word: the whole completion protocol of a call, in the
/// cell that carried it. The producer writes it with the payload; after
/// that, the transitions are:
///
///   kCellAsync             fire-and-forget; nobody waits, the consumer's
///                          drain retires the cell.
///   kCellPosted            sync call in flight, caller spinning/yielding.
///   kCellPosted → kCellParked      caller CAS: parked on the word (futex).
///   kCellPosted → kCellAbandoned   caller CAS on deadline expiry: it left,
///                          the consumer releases the cell when it gets
///                          there (an abandoned cell is its own zombie).
///   any → kCellDone | status       consumer exchange, after storing the
///                          reply in `regs`. It sees the parked bit it
///                          replaces (and kicks), or the abandoned value
///                          (and releases the cell itself).
///
/// Who releases the slot (seq = pos + capacity): the consumer for async
/// and abandoned cells; the caller for a completed sync cell, after it has
/// copied the reply out — so the slot is held for the length of the call.
/// The caller's CASes are from kCellPosted only, so a parker or an
/// abandoner can never erase a completion.
inline constexpr std::uint32_t kCellPosted = 0;
inline constexpr std::uint32_t kCellDone = 0x100;
inline constexpr std::uint32_t kCellAbandoned = 0x200;
inline constexpr std::uint32_t kCellParked = 0x400;
inline constexpr std::uint32_t kCellAsync = 0x800;

/// The status a kCellDone state word carries.
inline Status cell_status(std::uint32_t state) {
  return static_cast<Status>(state & 0xFFu);
}

/// One ring cell: exactly one cache line in shipped builds. `seq` is the
/// Vyukov sequence (cell i starts at i; a producer claiming position p
/// publishes p+1; the slot is free again at p+capacity). `state` is the
/// completion word above. `deadline` is an absolute host_cycles() tick
/// (0 = none): a cell that drains after its deadline is not executed late
/// — the server drops it (async) or completes it with kDeadlineExceeded
/// (sync), booking deadline_exceeded either way. A sync call's reply comes
/// back in `regs`, the register set that carried its arguments (Figure 4).
/// The cell holds no pointers, so a ring of them works unchanged inside a
/// cross-process segment (src/shm).
///
/// Trace builds (HPPC_TRACE=1) carry the request's TraceCtx inline in the
/// cell — that is how a span crosses the ring to the server slot. The 16
/// extra bytes push the cell to two cache lines (alignas rounds 80 up to
/// 128); shipped builds stay exactly one line, so tracing's cost never
/// leaks into the configuration the paper's numbers come from.
struct alignas(kHostCacheLine) XcallCell {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint32_t> state{kCellPosted};
  ProgramId caller = 0;
  std::uint64_t deadline = 0;
  ppc::RegSet regs{};  // request in, reply out — no indirection, no alloc
  EntryPointId ep = 0;
#if defined(HPPC_TRACE) && HPPC_TRACE
  obs::TraceCtx tctx{};  // request context riding the cell across slots
#endif

  /// Consumer side: does a caller wait on this cell?
  bool is_sync() const {
    return state.load(std::memory_order_relaxed) != kCellAsync;
  }
};
static_assert(sizeof(XcallCell) % kHostCacheLine == 0,
              "cells must tile cache lines exactly");
#if !defined(HPPC_TRACE) || !HPPC_TRACE
static_assert(sizeof(XcallCell) == kHostCacheLine,
              "shipped-build cells must stay exactly one cache line");
#endif

/// Frame-cell marker. An `ep` with this bit set carries a Figure-4
/// CallFrame inlined in the cell instead of a typed-handler request:
///   ep       = kFrameCellEp | FrameServiceId   (frame-table index)
///   deadline = the 64-bit packed op word       (frame cells carry no
///              deadline — the field is repurposed as the op lane)
///   regs     = the frame's 8 payload words
/// Legacy entry points are bounded by kMaxEntryPoints (1024), so the top
/// bit can never collide with a real id. The consumer checks this bit
/// FIRST and never interprets a frame cell's `deadline` as a tick count.
inline constexpr EntryPointId kFrameCellEp = 0x80000000u;

inline bool cell_is_frame(const XcallCell& cell) {
  return (cell.ep & kFrameCellEp) != 0;
}

/// Rebuild the CallFrame a frame cell carries (consumer side).
inline CallFrame cell_frame(const XcallCell& cell) {
  CallFrame f;
  f.op = cell.deadline;
  f.w = cell.regs.w;
  return f;
}

/// Request-context lanes in a typed (non-frame) cell's `ep` word. The cell
/// is exactly one cache line with no spare bytes, so the context that must
/// ride it — cancel-token index and traffic class — is packed into the ep
/// word's unused high bits (the absolute deadline already has its own
/// field). Layout, from the top:
///
///   bit  31      kFrameCellEp   frame-cell marker (frames carry NO request
///                               context in flight — see docs/XCALL.md)
///   bit  30      kCellBulkBit   traffic class (set = kBulk)
///   bits 16..29  token index    cancel-flag pool index (14 bits, 0 = none)
///   bits  0..15  entry point    the real EntryPointId
///
/// kMaxEntryPoints (1024) fits the low lane with room to spare; the
/// static_assert below keeps the packing honest if that ever grows.
inline constexpr EntryPointId kCellBulkBit = 0x40000000u;
inline constexpr unsigned kCellTokenShift = 16;
inline constexpr EntryPointId kCellTokenLaneMask = 0x3FFFu;  // 14 bits
inline constexpr EntryPointId kCellEpMask = 0xFFFFu;

/// Size of the runtime's cancel-flag pool: everything a cell's token lane
/// can address. Tokens allocate monotonically and index mod this, so a
/// stale cancel needs 2^14 intervening allocations to alias.
inline constexpr std::uint32_t kMaxCancelTokens = kCellTokenLaneMask + 1;

static_assert(kMaxEntryPoints <= kCellEpMask + 1,
              "entry-point ids must fit the cell ep lane");

inline EntryPointId cell_pack_ep(EntryPointId ep, std::uint32_t token_idx,
                                 bool bulk) {
  return ep | ((token_idx & kCellTokenLaneMask) << kCellTokenShift) |
         (bulk ? kCellBulkBit : 0u);
}

inline EntryPointId cell_ep(EntryPointId wire) { return wire & kCellEpMask; }

inline std::uint32_t cell_token_idx(EntryPointId wire) {
  return (wire >> kCellTokenShift) & kCellTokenLaneMask;
}

inline bool cell_is_bulk(EntryPointId wire) {
  return (wire & kCellBulkBit) != 0;
}

/// Consumer-side no-op for drain()'s kick callback.
struct NoKick {
  void operator()(EntryPointId, const obs::TraceCtx&) const {}
};

/// Bounded MPSC ring channel. Any thread posts; only the slot's current
/// ownership holder (owner thread, or a remote thread that won the
/// SlotGate) drains. Capacity is a compile-time power of two so the index
/// wrap is a mask. No member is a pointer, so the ring is position-
/// independent: the shm transport places one per peer in its segment.
class XcallRing {
 public:
  static constexpr std::size_t kCapacity = 64;
  static_assert((kCapacity & (kCapacity - 1)) == 0);

  XcallRing() {
    for (std::size_t i = 0; i < kCapacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  XcallRing(const XcallRing&) = delete;
  XcallRing& operator=(const XcallRing&) = delete;

  /// Any thread. The one post entry point: claims up to `n` contiguous
  /// cells with ONE CAS on the enqueue cursor, calls `fill(cell, i)` for
  /// each claimed cell i, and publishes the run with ONE release store —
  /// the doorbell of a batch, and the whole protocol for a single cell.
  /// `fill` must write every payload field (caller, ep, regs, deadline
  /// and, in trace builds, tctx): cells are reused. The ring writes the
  /// state word: with `sync_first` null the cells are fire-and-forget;
  /// otherwise they are sync calls, *sync_first receives the position of
  /// the first, and the caller waits on each (wait_complete) and hands it
  /// back (release). Returns the number of cells posted; 0 means the ring
  /// is full (the caller takes its retry or overflow path). Never blocks,
  /// never allocates.
  ///
  /// The claim is validated against every cell of the run: slots are
  /// released out of order (a caller releases its cell when its call ends,
  /// the consumer retires async and abandoned cells as it drains), so one
  /// free cell says nothing about its neighbours. A seq BEHIND its
  /// position means that cell is still held — the run is halved until it
  /// fits. A seq AHEAD of it means another producer moved the cursor since
  /// we loaded it; the cursor is reloaded and the full run retried, so a
  /// racing producer never turns a ring with room into a "full" answer. A
  /// short count is not an error — the caller re-submits the tail.
  ///
  /// Cells after the run's first are published with relaxed seq stores;
  /// that is sound because the single consumer drains strictly in order,
  /// so it only reads cell k after its acquire of cell 0's seq, which
  /// synchronizes-with the release below and the relaxed stores sequenced
  /// before it.
  template <typename Fill>
  std::size_t try_post(std::size_t n, Fill&& fill,
                       std::uint64_t* sync_first = nullptr) {
    if (n == 0) return 0;
    if (n > kCapacity) n = kCapacity;
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    std::size_t m = n;
    for (;;) {
      std::int64_t dif = 0;
      for (std::size_t k = 0; k < m && dif == 0; ++k) {
        const std::uint64_t seq =
            cell(pos + k).seq.load(std::memory_order_acquire);
        dif = static_cast<std::int64_t>(seq) -
              static_cast<std::int64_t>(pos + k);
      }
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + m,
                                               std::memory_order_relaxed)) {
          break;  // claimed [pos, pos+m)
        }
        m = n;  // the CAS reloaded pos: revalidate the full run there
      } else if (dif < 0) {
        m >>= 1;  // a cell of the run is still held
        if (m == 0) return 0;
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);  // stale cursor
        m = n;
      }
    }
    if (sync_first != nullptr) *sync_first = pos;
    const std::uint32_t kind = sync_first != nullptr ? kCellPosted : kCellAsync;
    // Fill back to front so the run's first cell — the one the consumer's
    // drain cursor is waiting on — is published last, with release.
    for (std::size_t i = m; i-- > 0;) {
      XcallCell& c = cell(pos + i);
      c.state.store(kind, std::memory_order_relaxed);
      fill(c, i);
      c.seq.store(pos + i + 1, i == 0 ? std::memory_order_release
                                      : std::memory_order_relaxed);
    }
    return m;
  }

  /// The cell at ring position `pos`.
  XcallCell& cell(std::uint64_t pos) { return cells_[pos & (kCapacity - 1)]; }

  /// Caller of a sync cell, once its completion is observed and its reply
  /// copied out: hand the slot back to producers. A CAS from the posted
  /// seq, so a release that races a re-arm of the ring (the shm reaper)
  /// cannot land on a cell that no longer belongs to this call.
  void release(std::uint64_t pos) {
    std::uint64_t posted = pos + 1;
    cell(pos).seq.compare_exchange_strong(posted, pos + kCapacity,
                                          std::memory_order_release,
                                          std::memory_order_relaxed);
  }

  /// Ownership holder only. Consumes every ready cell in one batch and
  /// returns the batch size. `fn(cell)` runs a cell's request and returns
  /// its Status with the reply stored in `cell.regs` (a void `fn` answers
  /// kOk). The ring then runs the consumer half of the state protocol: an
  /// abandoned cell is released without running `fn`; an async cell is
  /// retired; a sync cell is completed with one exchange, which is the
  /// consumer's last access to it — unless the caller abandoned it in the
  /// meantime, in which case the consumer releases it. `on_kick(ep, tctx)`
  /// runs after a completion woke a parked caller, with the cell's entry
  /// point and (trace builds) trace context, both read before the
  /// exchange.
  template <typename Fn, typename OnKick = NoKick>
  std::size_t drain(Fn&& fn, OnKick&& on_kick = {}) {
    std::size_t n = 0;
    for (;;) {
      const std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
      XcallCell& c = cell(pos);
      if (c.seq.load(std::memory_order_acquire) != pos + 1) break;
      const std::uint32_t st = c.state.load(std::memory_order_acquire);
      bool retire = true;
      if (st != kCellAbandoned) {
        Status rc = Status::kOk;
        if constexpr (std::is_void_v<decltype(fn(c))>) {
          fn(c);
        } else {
          rc = fn(c);
        }
        if (st != kCellAsync) {
          const EntryPointId ep = c.ep;
#if defined(HPPC_TRACE) && HPPC_TRACE
          const obs::TraceCtx tctx = c.tctx;
#else
          const obs::TraceCtx tctx{};
#endif
          const std::uint32_t prev = complete(c, rc);
          if ((prev & kCellParked) != 0) on_kick(ep, tctx);
          retire = prev == kCellAbandoned;  // else the caller releases it
        }
      }
      if (retire) c.seq.store(pos + kCapacity, std::memory_order_release);
      dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
      ++n;
    }
    return n;
  }

  /// Consumer, once the ring's only producer is gone (the shm reaper):
  /// complete every published, undrained sync cell with `rc` — nothing
  /// executes — then re-arm the ring. The re-arm resets the seq words and
  /// both cursors only: state words stay as they are, so a producer that
  /// was merely wedged still observes its completion. Reads no producer
  /// cursor, so it visits at most kCapacity cells whatever the ring holds.
  void abort_and_rearm(Status rc) {
    const std::uint64_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    for (std::uint64_t pos = deq; pos != deq + kCapacity; ++pos) {
      XcallCell& c = cell(pos);
      if (c.seq.load(std::memory_order_acquire) != pos + 1) continue;
      const std::uint32_t st = c.state.load(std::memory_order_acquire);
      if (st != kCellAsync && st != kCellAbandoned) complete(c, rc);
    }
    for (std::size_t i = 0; i < kCapacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    enqueue_pos_.store(0, std::memory_order_relaxed);
    dequeue_pos_.store(0, std::memory_order_relaxed);
  }

  /// Ownership holder (or a racy observer): is the next cell to drain
  /// published? Reads only the consumer cursor and the head cell — never
  /// the producers' enqueue cursor — so the backstop scans that call it
  /// leave the producer-owned line alone.
  bool head_ready() const {
    const std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    return cells_[pos & (kCapacity - 1)].seq.load(
               std::memory_order_acquire) == pos + 1;
  }

  /// Approximate queue depth (racy snapshot of the two cursors). Admission
  /// control compares it against a watermark; an off-by-a-few answer just
  /// moves the shedding threshold by that much for one call.
  std::size_t depth() const {
    const std::uint64_t enq = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    return enq > deq ? static_cast<std::size_t>(enq - deq) : 0;
  }

 private:
  /// Publish a sync cell's completion (reply already in regs): the
  /// exchange closes the park race — a caller parks by CAS posted→parked,
  /// so either its CAS loses and it sees the result without sleeping, or
  /// this exchange observes the parked bit and kicks it. Returns the state
  /// it replaced.
  static std::uint32_t complete(XcallCell& c, Status rc) {
    const std::uint32_t prev = c.state.exchange(
        kCellDone | static_cast<std::uint32_t>(rc), std::memory_order_acq_rel);
    if ((prev & kCellParked) != 0) c.state.notify_one();
    return prev;
  }

  // Producer-shared and consumer-private positions on separate lines so
  // remote CAS traffic never collides with the drain cursor.
  alignas(kHostCacheLine) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(kHostCacheLine) std::atomic<std::uint64_t> dequeue_pos_{0};
  std::array<XcallCell, kCapacity> cells_;
};

/// The slot-ownership word. States:
///   kOwner  — the registered thread is running; remote callers must use
///             the ring (it will be drained at the owner's next poll).
///   kIdle   — nobody is executing on the slot (thread parked in serve(),
///             or no thread ever registered); a remote caller may steal.
///   kStolen — a remote caller holds the slot and is executing on it.
/// The owner's fast path (Runtime::call) never touches this word: while
/// the owner runs, the state is kOwner and cannot change under it, so the
/// same-slot warm call stays zero-shared-lines by construction.
class SlotGate {
 public:
  enum : std::uint32_t { kOwner = 0, kIdle = 1, kStolen = 2 };

  /// Remote caller: try to take the slot for direct execution. The plain
  /// load first keeps a waiter's periodic help attempt from taking the
  /// gate line exclusive while the owner runs — that line also holds the
  /// slot's `rings` pointer, which the owner reads on every drain.
  bool try_steal() {
    std::uint32_t expect = kIdle;
    return state_.load(std::memory_order_relaxed) == kIdle &&
           state_.compare_exchange_strong(expect, kStolen,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  /// Remote caller: hand the slot back after direct execution.
  void release_steal() { state_.store(kIdle, std::memory_order_release); }

  /// Owner thread: park (publish idle). Must not be mid-call.
  void enter_idle() { state_.store(kIdle, std::memory_order_release); }

  /// Owner thread: un-park, waiting out any in-flight thief.
  void exit_idle() {
    std::uint32_t expect = kIdle;
    while (!state_.compare_exchange_weak(expect, kOwner,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      expect = kIdle;
      std::this_thread::yield();
    }
  }

  /// First registration: claim an idle gate; idempotent re-registration
  /// (state already kOwner — necessarily ours, slots are per-thread) is a
  /// no-op. Waits out a thief caught mid-steal.
  void claim_at_register() {
    for (;;) {
      std::uint32_t expect = kIdle;
      if (state_.compare_exchange_weak(expect, kOwner,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return;
      }
      if (expect == kOwner) return;
      std::this_thread::yield();  // kStolen: thief is finishing
    }
  }

  std::uint32_t state() const {
    return state_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> state_{kIdle};
};

/// Doorbell scheduling (Runtime::poll): every kPollScanPeriod-th poll
/// sweeps every producer ring's head cell instead of only the flagged
/// ones — the backstop for a producer preempted between publishing a cell
/// and ringing its doorbell.
inline constexpr std::uint32_t kPollScanPeriod = 64;
/// Consecutive empty visits after which the consumer clears a sticky
/// doorbell bit (through the clear handshake). Long enough that a producer
/// calling in a loop finds its bit still set; short enough that an idle
/// slot's mask is back to 0 within a few microseconds of polling.
inline constexpr std::uint32_t kDoorbellIdlePolls = 64;

/// Yield rounds a no-deadline waiter burns (helping once per round) before
/// it parks on the completion word. Each round is a spin window plus a
/// help attempt, so by the time a waiter parks it has given the server a
/// long cooperative window AND tried to drain the target itself — parking
/// only happens when someone else demonstrably holds the slot.
inline constexpr int kWaitYieldRounds = 64;

/// `yield_rounds` for a waiter that must never park: an shm peer, whose
/// private futex would not cross the address space to the server.
inline constexpr int kNeverPark = -1;

/// Adaptive completion wait on a posted sync cell — the spin→yield→park
/// ladder:
///
///   spin   96 cpu_relax polls of the state word (the multi-core happy
///          path, where the server replies within the spin window);
///   yield  up to `yield_rounds` rounds of help() + sched yield, so a
///          time-sliced server can run and an idle target can be drained
///          by the waiter itself (`help` steals the gate and drains);
///   park   CAS the state word kCellPosted→kCellParked and block in the
///          C++20 atomic wait until the server's completing exchange —
///          which observes the parked bit it replaced — kicks us with
///          notify_one().
///
/// `deadline` is an absolute host_cycles() tick, 0 for none. A waiter
/// holding one never parks (atomic wait has no timeout): each yield round
/// checks the clock and, on expiry, abandons with a CAS from kCellPosted.
/// A completion that races the expiry wins, so the caller takes the real
/// result rather than reporting a deadline it missed by nanoseconds.
///
/// Returns the final state word: kCellDone | status (the reply is in
/// cell.regs; the caller copies it out, then releases the slot), or
/// kCellAbandoned (the cell now belongs to the server, which releases it).
/// `on_park` runs once per park attempt, before blocking (counters/trace/
/// failpoints). The park CAS is from kCellPosted only, so a parker can
/// never erase a completion; completion checks test kCellDone, so a stale
/// parked value observed after a spurious wake never reads as a result.
/// Always inlined: an out-of-line spin loop measurably lengthened the ring
/// round trip (hostbench kv_ring p50).
template <typename Helper, typename OnPark>
[[gnu::always_inline]] inline std::uint32_t wait_complete(
    XcallCell& cell, std::uint64_t deadline, int yield_rounds, Helper&& help,
    OnPark&& on_park) {
  constexpr int kSpins = 96;
  for (int round = 0;;) {
    for (int i = 0; i < kSpins; ++i) {
      const std::uint32_t v = cell.state.load(std::memory_order_acquire);
      if ((v & kCellDone) != 0) return v;
      cpu_relax();
    }
    if (deadline != 0 && host_cycles() >= deadline) {
      std::uint32_t v = kCellPosted;
      if (cell.state.compare_exchange_strong(v, kCellAbandoned,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        return kCellAbandoned;
      }
      return v;  // lost to the completing exchange: v is its done word
    }
    help();
    const std::uint32_t v = cell.state.load(std::memory_order_acquire);
    if ((v & kCellDone) != 0) return v;
    if (deadline != 0 || yield_rounds == kNeverPark ||
        round++ < yield_rounds) {
      std::this_thread::yield();
      continue;
    }
    // Ladder exhausted: park. By now we have posted our cell and rung the
    // doorbell, so the slot's current ownership holder (owner poll/serve,
    // or a helping thief) is guaranteed to reach it and kick us.
    on_park();
    for (;;) {
      std::uint32_t cur = cell.state.load(std::memory_order_acquire);
      if ((cur & kCellDone) != 0) return cur;
      if (cur == kCellPosted &&
          !cell.state.compare_exchange_strong(cur, kCellParked,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        continue;  // completion raced in under us — re-examine
      }
      // Blocks while the word still reads kCellParked; the server's
      // completing exchange changes it and notifies. Spurious wakes just
      // re-run the loop.
      cell.state.wait(kCellParked, std::memory_order_acquire);
    }
  }
}

}  // namespace hppc::rt
