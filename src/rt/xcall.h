// Lock-free cross-slot call channels (xcall).
//
// The paper's fast path covers same-processor calls only; cross-processor
// traffic goes through "interrupt + remote queue" (§4.5.2). The host
// runtime used to model that with a Mailbox<std::function<void()>> — a
// Treiber stack that heap-allocates a node per message — so every cross-
// slot operation paid an allocation plus unbounded CAS contention. This
// header replaces that hot path with a per-slot bounded MPSC ring of
// fixed-size, cache-line-sized POD cells (caller program, entry point,
// inline RegSet payload, completion pointer), in the style of the
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
//   XcallWait  — the caller-side completion block for synchronous calls:
//                one cache line holding the reply and one atomic word (0
//                while pending, 0x100|Status when done) waited on with an
//                adaptive spin→yield→park ladder.
//                A waiter that exhausts its yield budget parks on the word
//                (C++20 atomic wait); the completing server's exchange sees
//                the parked bit and kicks it with one notify.
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

#include "common/cacheline.h"
#include "common/cpu_relax.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/trace.h"
#include "ppc/regs.h"
#include "rt/frame_abi.h"

namespace hppc::rt {

// The spin hint moved to common/cpu_relax.h so spin loops below rt/ (the
// repl seqlock read retry) can share it; re-exported here for existing
// callers.
using ::hppc::cpu_relax;

/// Caller-side completion block for a synchronous cross-slot call: exactly
/// one cache line holding the done word, the inline reply and the pool
/// link. The server runs the handler on a local RegSet, then stores the
/// reply and exchanges the done word back to back — one ownership request
/// for the caller's line per call, and no ping-pong with the spinning
/// caller while the handler runs. The caller copies the reply out after
/// completion. The default (no-deadline) path keeps the block on the
/// caller's stack (cache-hot for the spinner); deadline calls use
/// slot-pooled blocks, so a caller that abandons the wait leaves the
/// server a target that stays valid forever.
///
/// The done word is a tiny state machine:
///   0                      — pending (caller spinning or yielding)
///   kParkedBit             — pending, caller parked on the word (only
///                            no-deadline waiters ever park)
///   kAbandonedBit          — caller's deadline expired; it left (only
///                            pooled blocks ever reach this state)
///   kDoneBit | status      — server completed (reply valid)
///   kDoneBit|kAbandonedBit|status — server acknowledged an abandoned cell
///                            without executing it (block is recyclable)
/// The caller abandons with a CAS from 0, so it can never erase a
/// completion; the caller parks with a CAS from 0, so it can never park
/// over one; the server's final exchange always sets kDoneBit and observes
/// the parked bit it replaces, so a parked waiter is always kicked and an
/// abandoned block always becomes reclaimable once its cell drains.
struct alignas(kHostCacheLine) XcallWait {
  static constexpr std::uint32_t kDoneBit = 0x100;
  static constexpr std::uint32_t kAbandonedBit = 0x200;
  static constexpr std::uint32_t kParkedBit = 0x400;

  std::atomic<std::uint32_t> done{0};
  XcallWait* next = nullptr;  // caller-slot pool link (pooled waits)
  ppc::RegSet reply{};        // the server's reply words, valid once done

  /// Server side: publish the result. The exchange (not a plain store)
  /// closes the park race — a waiter parks by CAS 0→kParkedBit, so either
  /// its CAS loses to this exchange and it sees the result without
  /// sleeping, or this exchange observes the parked bit and kicks it.
  /// Returns true when a parked waiter was woken (for the kick counter).
  bool complete(Status rc) {
    const std::uint32_t prev =
        done.exchange(kDoneBit | static_cast<std::uint32_t>(rc),
                      std::memory_order_acq_rel);
    if ((prev & kParkedBit) != 0) {
      done.notify_one();
      return true;
    }
    return false;
  }

  /// Server side, before executing: an abandoned cell is acknowledged
  /// (kDoneBit set so the owner can recycle the block) and skipped.
  bool abandoned() const {
    return (done.load(std::memory_order_acquire) & kAbandonedBit) != 0;
  }
  void ack_abandoned() {
    done.store(kDoneBit | kAbandonedBit |
                   static_cast<std::uint32_t>(Status::kCallAborted),
               std::memory_order_release);
  }

  /// Caller side, on deadline expiry. True: the wait is abandoned and the
  /// caller may leave (the block must survive until the server acks).
  /// False: the server completed first — the caller takes the real result.
  bool try_abandon() {
    std::uint32_t expect = 0;
    return done.compare_exchange_strong(expect, kAbandonedBit,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  }

  /// Owner-side recycling check: the server's final store (completion or
  /// abandonment ack) has landed and nobody else will touch the block.
  bool server_finished() const {
    return (done.load(std::memory_order_acquire) & kDoneBit) != 0;
  }

  void reset() {
    done.store(0, std::memory_order_relaxed);
    next = nullptr;
  }
};

/// One ring cell: exactly one cache line in shipped builds. `seq` is the
/// Vyukov sequence (cell i starts at i; a producer claiming position p
/// publishes p+1; the consumer retires it to p+capacity). `wait == nullptr`
/// marks a fire-and-forget (async) cell. `deadline` is an absolute
/// host_cycles() tick (0 = none): a cell that drains after its deadline is
/// not executed late — the server drops it (async) or completes it with
/// kDeadlineExceeded (sync), booking deadline_exceeded either way.
///
/// Trace builds (HPPC_TRACE=1) carry the request's TraceCtx inline in the
/// cell — that is how a span crosses the ring to the server slot. The 16
/// extra bytes push the cell to two cache lines (alignas rounds 80 up to
/// 128); shipped builds stay exactly one line, so tracing's cost never
/// leaks into the configuration the paper's numbers come from.
struct alignas(kHostCacheLine) XcallCell {
  std::atomic<std::uint64_t> seq{0};
  XcallWait* wait = nullptr;
  std::uint64_t deadline = 0;
  ppc::RegSet regs{};  // inline request payload — no indirection, no alloc
  ProgramId caller = 0;
  EntryPointId ep = 0;
#if defined(HPPC_TRACE) && HPPC_TRACE
  obs::TraceCtx tctx{};  // request context riding the cell across slots
#endif
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

/// Bounded MPSC ring channel. Any thread posts; only the slot's current
/// ownership holder (owner thread, or a remote thread that won the
/// SlotGate) drains. Capacity is a compile-time power of two so the index
/// wrap is a mask.
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
  /// `fill` must write every payload field (caller, ep, regs, wait,
  /// deadline and, in trace builds, tctx): cells are reused. Returns the
  /// number of cells posted; 0 means the ring is full (the caller takes its
  /// retry or overflow path). Never blocks, never allocates.
  ///
  /// The claim is validated against the run's LAST cell: the consumer
  /// retires cells in order, so `cells[pos+m-1].seq == pos+m-1` implies the
  /// whole run [pos, pos+m) is free. A seq BEHIND that position means the
  /// run is not free at this length — it is halved until it fits. A seq
  /// AHEAD of it means another producer moved the cursor since we loaded
  /// it; the cursor is reloaded and the full run retried, so a racing
  /// producer never turns a ring with room into a "full" answer. A short
  /// count is not an error — the caller re-submits the tail.
  ///
  /// Cells after the run's first are published with relaxed seq stores;
  /// that is sound because the single consumer drains strictly in order,
  /// so it only reads cell k after its acquire of cell 0's seq, which
  /// synchronizes-with the release below and the relaxed stores sequenced
  /// before it.
  template <typename Fill>
  std::size_t try_post(std::size_t n, Fill&& fill) {
    if (n == 0) return 0;
    if (n > kCapacity) n = kCapacity;
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    std::size_t m = n;
    for (;;) {
      const std::uint64_t last = pos + m - 1;
      const std::uint64_t seq =
          cells_[last & (kCapacity - 1)].seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(last);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + m,
                                               std::memory_order_relaxed)) {
          break;  // claimed [pos, pos+m)
        }
        m = n;  // the CAS reloaded pos: revalidate the full run there
      } else if (dif < 0) {
        m >>= 1;  // not free at this length: the consumer is behind
        if (m == 0) return 0;
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);  // stale cursor
        m = n;
      }
    }
    // Fill back to front so the run's first cell — the one the consumer's
    // drain cursor is waiting on — is published last, with release.
    for (std::size_t i = m; i-- > 0;) {
      XcallCell& cell = cells_[(pos + i) & (kCapacity - 1)];
      fill(cell, i);
      cell.seq.store(pos + i + 1, i == 0 ? std::memory_order_release
                                         : std::memory_order_relaxed);
    }
    return m;
  }

  /// Ownership holder only. Consumes every ready cell in one batch —
  /// `fn(cell)` per cell — and retires them. Returns the batch size.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    std::size_t n = 0;
    for (;;) {
      std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
      XcallCell& cell = cells_[pos & (kCapacity - 1)];
      if (cell.seq.load(std::memory_order_acquire) != pos + 1) break;
      fn(cell);
      cell.seq.store(pos + kCapacity, std::memory_order_release);
      dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
      ++n;
    }
    return n;
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

/// Adaptive completion wait — the spin→yield→park ladder:
///
///   spin   96 cpu_relax polls of the done word (the multi-core happy
///          path, where the server replies within the spin window);
///   yield  up to `yield_rounds` rounds of help() + sched yield, so a
///          time-sliced server can run and an idle target can be drained
///          by the waiter itself (`help` steals the gate and drains);
///   park   CAS the done word 0→kParkedBit and block in the C++20 atomic
///          wait until the server's completing exchange — which observes
///          the parked bit it replaced — kicks us with notify_one().
///
/// `on_park` runs once per park attempt, before blocking (counters/trace/
/// failpoints). Deadline waiters must NOT use this path (atomic wait has
/// no timeout); they stay on wait_complete_deadline's spin+yield loop.
/// The park CAS is from 0 only, so a parker can never erase a completion
/// or an abandonment; completion checks mask kDoneBit, so a stale parked
/// bit observed after a spurious wake never reads as a result. Always
/// inlined: an out-of-line spin loop measurably lengthened the ring round
/// trip (hostbench kv_ring p50).
template <typename Helper, typename OnPark>
[[gnu::always_inline]] inline Status wait_complete(XcallWait& wait,
                                                   int yield_rounds,
                                                   Helper&& help,
                                                   OnPark&& on_park) {
  constexpr int kSpins = 96;
  for (int round = 0;; ++round) {
    for (int i = 0; i < kSpins; ++i) {
      const std::uint32_t v = wait.done.load(std::memory_order_acquire);
      if ((v & XcallWait::kDoneBit) != 0) {
        return static_cast<Status>(v & 0xFFu);
      }
      cpu_relax();
    }
    help();
    const std::uint32_t v = wait.done.load(std::memory_order_acquire);
    if ((v & XcallWait::kDoneBit) != 0) return static_cast<Status>(v & 0xFFu);
    if (round < yield_rounds) {
      std::this_thread::yield();
      continue;
    }
    // Ladder exhausted: park. By now we have posted our cell and rung the
    // doorbell, so the slot's current ownership holder (owner poll/serve,
    // or a helping thief) is guaranteed to reach it and kick us.
    on_park();
    for (;;) {
      std::uint32_t cur = wait.done.load(std::memory_order_acquire);
      if ((cur & XcallWait::kDoneBit) != 0) {
        return static_cast<Status>(cur & 0xFFu);
      }
      if (cur == 0 &&
          !wait.done.compare_exchange_strong(cur, XcallWait::kParkedBit,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        continue;  // completion raced in under us — re-examine
      }
      // Blocks while the word still reads kParkedBit; the server's
      // completing exchange changes it and notifies. Spurious wakes just
      // re-run the loop.
      wait.done.wait(XcallWait::kParkedBit, std::memory_order_acquire);
    }
  }
}

/// Deadline variant: the same spin-then-yield loop, but each yield round
/// checks `now()` against `deadline` and, on expiry, tries to abandon the
/// wait. Returns the completion status with `*timed_out == false`, or —
/// when the abandon CAS wins — Status::kDeadlineExceeded with
/// `*timed_out == true` (the caller must treat `wait` as in flight until
/// the server acks). A completion that races the expiry wins: the caller
/// takes the real result rather than reporting a deadline it missed by
/// nanoseconds.
template <typename Helper, typename Clock>
Status wait_complete_deadline(XcallWait& wait, std::uint64_t deadline,
                              Clock&& now, Helper&& help, bool* timed_out) {
  constexpr int kSpins = 96;
  *timed_out = false;
  for (;;) {
    for (int i = 0; i < kSpins; ++i) {
      const std::uint32_t v = wait.done.load(std::memory_order_acquire);
      if (v != 0) return static_cast<Status>(v & 0xFFu);
      cpu_relax();
    }
    if (now() >= deadline) {
      if (wait.try_abandon()) {
        *timed_out = true;
        return Status::kDeadlineExceeded;
      }
      // Lost to the server: the result is (or is about to be) published.
      // Spin it out (never park — the completing exchange is imminent).
      return wait_complete(wait, /*yield_rounds=*/1 << 20, help, [] {});
    }
    help();
    const std::uint32_t v = wait.done.load(std::memory_order_acquire);
    if (v != 0) return static_cast<Status>(v & 0xFFu);
    std::this_thread::yield();
  }
}

}  // namespace hppc::rt
