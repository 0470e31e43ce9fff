// Lock-free cross-slot call channels (xcall).
//
// The paper's fast path covers same-processor calls only; cross-processor
// traffic goes through "interrupt + remote queue" (§4.5.2). The host
// runtime models the remote queue with per-(producer, consumer) bounded
// rings of fixed-size, cache-line-sized POD cells (caller program, entry
// point, inline RegSet payload, completion state word), in the style of
// the shared-memory rings the memory-offloading IPC literature places
// between "same-core procedure call" and "kernel message queue". The
// rings are a slot's only queue: its own async calls ride its own ring,
// and the interrupt half is a per-slot reclaim word (rt/runtime.h).
//
// Three pieces:
//
//   XcallRing  — a bounded single-producer/single-consumer ring of
//                Vyukov-sequenced cells. The producer claims cells with
//                plain stores of its private tail and publishes them with
//                one release store; the consumer drains the ready cells in
//                a batch of at most one lap. No allocation, ever; a full
//                ring is reported to the caller, who retries (sync) or
//                refuses the post with kOverloaded (async).
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
//                one server release store, so a call moves one line each
//                way and the server never waits on the caller's copy of
//                it. The server also retires the cell; the caller only
//                copies the reply out. The caller waits on the word with an
//                adaptive spin→yield→park ladder (wait_complete); a waiter
//                that exhausts its yield budget parks on the word (a raw
//                futex with a bounded sleep) and the completing server
//                kicks it if it saw the parked bit. A call owns its cell
//                and nothing else.
//
// One producer at a time per ring. For the in-process ring that is the
// thread holding the source slot (its registered owner, or a thief that
// won its SlotGate); for an shm lane, the peer that owns the lane. The
// rule carries correctness twice: the tail is a plain producer-private
// cursor, and the consumer retires a sync cell while its caller may still
// be reading the reply — the one producer that could reclaim the cell is
// the caller itself, and it does not post again until it has copied its
// reply out. Fault-injection builds abort on an overlapping producer.
//
// This header is the one home of the cell format and the completion
// protocol; the in-process runtime (rt/runtime.cpp) and the cross-process
// transport (shm/transport.cpp) both run it and keep no copy.
//
// Posting: XcallRing::try_post() claims N contiguous cells (N = 1 for a
// single call) with one acquire load of the run's last cell and publishes
// the whole run with ONE release store (the batch doorbell) — cells after
// the first are published with relaxed stores, and the consumer's
// in-order acquire of the run's first cell carries the happens-before edge
// for all of them. The caller fills each claimed cell; every request is a
// Figure-4 frame in one cell format, under one protocol.
//
// A warm cross-slot call — direct or ring, single or batched — performs
// ZERO heap allocations; the tests and benches assert that with a counted
// global operator new (common/heap_audit.h).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>

#include "common/assert.h"
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
///   kCellPosted → kCellAbandoned   caller CAS on deadline expiry: it left;
///                          a drain that reaches the cell skips it.
///   any → kCellDone | status       consumer release store, after storing
///                          the reply in `regs` and loading the word once
///                          (relaxed). If that load saw the parked bit, the
///                          consumer kicks the waiter. An abandon that
///                          lands after the load is overwritten, which is
///                          harmless: the caller has left.
///
/// The consumer retires every cell it drains (seq = pos + capacity) —
/// async, sync and abandoned alike, in drain order. The caller's CASes are
/// from kCellPosted only, so a parker or an abandoner can never erase a
/// completion. A park CAS that lands between the consumer's load and its
/// store gets no kick; the parked waiter's bounded sleep (kParkRecheckNs)
/// covers that case.
inline constexpr std::uint32_t kCellPosted = 0;
inline constexpr std::uint32_t kCellDone = 0x100;
inline constexpr std::uint32_t kCellAbandoned = 0x200;
inline constexpr std::uint32_t kCellParked = 0x400;
inline constexpr std::uint32_t kCellAsync = 0x800;

/// The status a kCellDone state word carries.
inline Status cell_status(std::uint32_t state) {
  return static_cast<Status>(state & 0xFFu);
}

/// One ring cell: exactly one cache line in shipped builds, one format for
/// every call (a Figure-4 frame, rt/frame_abi.h). `seq` is the Vyukov sequence (cell i starts at
/// i; the producer claiming position p publishes p+1; the slot is free
/// again at p+capacity). `state` is the completion word above. `deadline`
/// is an absolute host_cycles() tick (0 = none): a cell that drains after
/// its deadline is not executed late — the server drops it (async) or
/// completes it with kDeadlineExceeded (sync), booking deadline_exceeded
/// either way. `ep` packs the entry point with the request's cancel token
/// and class (see the ep lanes below). A sync call's reply comes back in
/// `regs`, the register set that carried its arguments (Figure 4): the
/// frame's 8 payload words, while its opcode|flags|rc word rides
/// `opflags`, the line's last 4 bytes. The cell
/// holds no pointers, so a ring of them works unchanged inside a
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
  Word opflags = 0;  // the frame's low op word (a RegSet's regs[kOpWord])
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

/// Request-context lanes in a cell's `ep` word. The cell is exactly one
/// cache line, so the context that must ride it — cancel-token index and
/// traffic class — is packed into the ep word's unused high bits (the
/// absolute deadline has its own field). Layout, from the top:
///
///   bit  31      reserved (zero)
///   bit  30      kCellBulkBit   traffic class (set = kBulk)
///   bits 16..29  token index    cancel-flag pool index (14 bits, 0 = none)
///   bits  0..15  entry point    the EntryPointId the frame names
///
/// kMaxEntryPoints (1024) fits the low lane with room to spare; the
/// static_assert below keeps the packing honest if it ever grows.
inline constexpr EntryPointId kCellBulkBit = 0x40000000u;
inline constexpr unsigned kCellTokenShift = 16;
inline constexpr EntryPointId kCellTokenLaneMask = 0x3FFFu;  // 14 bits
inline constexpr EntryPointId kCellEpMask = 0xFFFFu;

/// Size of the runtime's cancel-flag pool: everything a cell's token lane
/// can address. Tokens allocate monotonically and index mod this, so a
/// stale cancel needs 2^14 intervening allocations to alias.
inline constexpr std::uint32_t kMaxCancelTokens = kCellTokenLaneMask + 1;

/// The cancel-flag pool, a view over storage somebody else owns: the
/// runtime's own, or a shm segment's (resolved once by whoever maps it).
/// Token t maps to flags[t & kCellTokenLaneMask]. Tokens allocate
/// wait-free and monotonically, never with index 0 (0 in the cell's token
/// lane means "not cancellable"), and allocation clears the flag it maps
/// to. The pool is generation-free: a stale cancel on a recycled index is
/// a benign spurious kCallAborted (see rt/request_ctx.h).
struct CancelPool {
  std::atomic<std::uint32_t>* flags = nullptr;   // [kMaxCancelTokens]
  std::atomic<std::uint32_t>* cursor = nullptr;  // next token, starts >= 1

  std::uint32_t create() const {
    std::uint32_t t;
    do {
      t = cursor->fetch_add(1, std::memory_order_relaxed);
    } while ((t & kCellTokenLaneMask) == 0);
    flags[t & kCellTokenLaneMask].store(0, std::memory_order_relaxed);
    return t;
  }
  void raise(std::uint32_t token) const {
    if (token == 0) return;
    flags[token & kCellTokenLaneMask].store(1, std::memory_order_release);
  }
  /// One acquire load; 0 is never cancelled.
  bool requested(std::uint32_t token) const {
    return token != 0 && flags[token & kCellTokenLaneMask].load(
                             std::memory_order_acquire) != 0;
  }
};

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

/// Rebuild the CallFrame a cell carries: the entry from the ep lane,
/// opcode|flags|rc from `opflags`.
inline CallFrame cell_frame(const XcallCell& cell) {
  CallFrame f;
  f.op = (FrameWord{cell_ep(cell.ep)} << 32) | cell.opflags;
  f.w = cell.regs.w;
  return f;
}

/// The longest a parked waiter sleeps before it re-checks its cell. The
/// completing server kicks a waiter it saw parked; one whose park CAS
/// landed just after the server's load is found by this re-check instead.
inline constexpr std::uint64_t kParkRecheckNs = 200'000;

/// Sleep on `word` while it reads `expect`, for at most `timeout_ns`: a
/// raw FUTEX_WAIT_PRIVATE (std::atomic::wait has no timeout). Returns on a
/// kick, a changed word, the timeout or a spurious wake; the caller
/// re-checks the word either way.
void park_on(std::atomic<std::uint32_t>& word, std::uint32_t expect,
             std::uint64_t timeout_ns);

/// Wake one waiter sleeping in park_on(word): a raw FUTEX_WAKE_PRIVATE
/// (libstdc++'s notify_one does not wake a raw futex waiter).
void kick_waiter(std::atomic<std::uint32_t>& word);

/// Consumer-side no-op for drain()'s kick callback.
struct NoKick {
  void operator()(EntryPointId, const obs::TraceCtx&) const {}
};

/// Bounded SPSC ring channel. One producer at a time posts (see the file
/// comment); only the slot's current ownership holder (owner thread, or a
/// remote thread that won the SlotGate) drains. Capacity is a compile-time
/// power of two so the index wrap is a mask. No member is a pointer, so
/// the ring is position-independent: the shm transport places one per peer
/// in its segment.
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

  /// The ring's one producer. The one post entry point: claims up to `n`
  /// contiguous cells at the private tail, calls `fill(cell, i)` for each
  /// claimed cell i, and publishes the run with ONE release store — the
  /// doorbell of a batch, and the whole protocol for a single cell. `fill`
  /// must write every field the consumer reads (caller, ep, regs,
  /// deadline, opflags and, in trace builds, tctx): cells are
  /// reused. The ring writes the
  /// state word: with `sync_first` null the cells are fire-and-forget;
  /// otherwise they are sync calls, *sync_first receives the position of
  /// the first, and the caller waits on each (wait_complete) and copies
  /// its reply out. Returns the number of cells posted; 0 means the ring
  /// is full (the caller retries or refuses). Never blocks, never
  /// allocates, and — outside the fault builds' overlap check — performs
  /// no read-modify-write.
  ///
  /// The consumer retires cells in drain order, so the run's last cell
  /// being free means every cell before it is free too: the claim checks
  /// that one cell, and its acquire orders every earlier retire. A seq
  /// behind its position means the run reaches an undrained cell — the run
  /// is halved until it fits. A short count is not an error — the caller
  /// re-submits the rest.
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
#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
    const OneProducer guard(producing_);
#endif
    if (n > kCapacity) n = kCapacity;
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    std::size_t m = n;
    while (cell(pos + m - 1).seq.load(std::memory_order_acquire) !=
           pos + m - 1) {
      m >>= 1;  // the run reaches an undrained cell
      if (m == 0) return 0;
    }
    tail_.store(pos + m, std::memory_order_relaxed);
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

  /// Ownership holder only. Consumes the ready cells in one batch of at
  /// most kCapacity — one lap — and returns the batch size. The bound
  /// matters only when `fn` posts into this same ring (a handler re-posting
  /// an async call to its own slot); a producer elsewhere can have at most
  /// a lap in flight. `fn(cell)` runs a cell's request and returns
  /// its Status with the reply stored in `cell.regs` (a void `fn` answers
  /// kOk). The ring then runs the consumer half of the state protocol: an
  /// abandoned cell is skipped without running `fn`; a sync cell is
  /// completed with one release store (complete()); every cell is then
  /// retired, so the server alone moves a cell back to the producers.
  /// `on_kick(ep, tctx)` runs after a completion woke a parked caller,
  /// with the cell's entry point and (trace builds) trace context, both
  /// read before the completion.
  template <typename Fn, typename OnKick = NoKick>
  std::size_t drain(Fn&& fn, OnKick&& on_kick = {}) {
    std::size_t n = 0;
    while (n < kCapacity) {
      const std::uint64_t pos = head_.load(std::memory_order_relaxed);
      XcallCell& c = cell(pos);
      if (c.seq.load(std::memory_order_acquire) != pos + 1) break;
      const std::uint32_t st = c.state.load(std::memory_order_acquire);
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
          if (complete(c, rc)) on_kick(ep, tctx);
        }
      }
      c.seq.store(pos + kCapacity, std::memory_order_release);
      head_.store(pos + 1, std::memory_order_relaxed);
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
    const std::uint64_t deq = head_.load(std::memory_order_relaxed);
    for (std::uint64_t pos = deq; pos != deq + kCapacity; ++pos) {
      XcallCell& c = cell(pos);
      if (c.seq.load(std::memory_order_acquire) != pos + 1) continue;
      const std::uint32_t st = c.state.load(std::memory_order_acquire);
      if (st != kCellAsync && st != kCellAbandoned) complete(c, rc);
    }
    for (std::size_t i = 0; i < kCapacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    tail_.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
  }

  /// Ownership holder (or a racy observer): the next cell to drain if it
  /// is published, else nullptr. Reads only the consumer cursor and the
  /// head cell — never the producer's tail — so an owner scanning its
  /// rings leaves the producer-owned lines alone. Only the ownership
  /// holder may read the cell's fields.
  const XcallCell* ready_head() const {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    const XcallCell& c = cells_[pos & (kCapacity - 1)];
    return c.seq.load(std::memory_order_acquire) == pos + 1 ? &c : nullptr;
  }

  /// Approximate queue depth (racy snapshot of the tail and the head).
  /// Admission control compares it against a watermark; an off-by-a-few
  /// answer just moves the shedding threshold by that much for one call.
  std::size_t depth() const {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return tail > head ? static_cast<std::size_t>(tail - head) : 0;
  }

 private:
  /// Publish a sync cell's completion (reply already in regs) with plain
  /// stores: no RMW, so the server never stalls on the caller's copy of
  /// the line. One relaxed load first tells whether the caller parked; if
  /// it did, the waiter is kicked after the store. A park CAS that lands
  /// between that load and the store goes unkicked — the waiter's bounded
  /// sleep re-checks the word (wait_complete). Returns whether it kicked.
  static bool complete(XcallCell& c, Status rc) {
    const std::uint32_t prev = c.state.load(std::memory_order_relaxed);
    c.state.store(kCellDone | static_cast<std::uint32_t>(rc),
                  std::memory_order_release);
    if ((prev & kCellParked) == 0) return false;
    kick_waiter(c.state);
    return true;
  }

#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
  /// Fault builds: holds `word` for one try_post and aborts if another
  /// producer already holds it.
  struct OneProducer {
    explicit OneProducer(std::atomic<std::uint32_t>& word) : w(word) {
      const bool overlap = w.exchange(1, std::memory_order_acquire) != 0;
      HPPC_ASSERT_MSG(!overlap,
                      "XcallRing: a second producer overlaps try_post");
    }
    ~OneProducer() { w.store(0, std::memory_order_release); }
    std::atomic<std::uint32_t>& w;
  };
#endif

  // The producer's and the consumer's cursors on separate lines. Atomic
  // only so depth() may read them from any thread: each has one writer
  // (the reaper's re-arm runs once the producer is gone).
  alignas(kHostCacheLine) std::atomic<std::uint64_t> tail_{0};
  // Set for the length of a try_post in fault builds; on the tail's line,
  // and present in every build, so the ring's layout never depends on the
  // build flags (shm peers and servers may be built differently).
  std::atomic<std::uint32_t> producing_{0};
  alignas(kHostCacheLine) std::atomic<std::uint64_t> head_{0};
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
  /// gate line exclusive while the owner runs — every cross-slot post
  /// loads that line.
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

/// Yield rounds a no-deadline waiter burns (helping once per round) before
/// it parks on the completion word. Each round is a spin window plus a
/// help attempt, so by the time a waiter parks it has given the server a
/// long cooperative window AND tried to drain the target itself — parking
/// only happens when someone else demonstrably holds the slot.
inline constexpr int kWaitYieldRounds = 64;

/// `yield_rounds` for a waiter that must never park: an shm peer. A shared
/// futex would reach its server, but with one server thread the kick per
/// call costs more than the spin it saves (shm/layout.h has the numbers).
inline constexpr int kNeverPark = -1;

/// Adaptive completion wait on a posted sync cell — the spin→yield→park
/// ladder:
///
///   spin   96 cpu_relax polls of the state word (the multi-core happy
///          path, where the server replies within the spin window);
///   yield  up to `yield_rounds` rounds of help() + sched yield, so a
///          time-sliced server can run and an idle target can be drained
///          by the waiter itself (`help` steals the gate and drains);
///   park   CAS the state word kCellPosted→kCellParked and sleep on it
///          (park_on) until the completing server, whose load saw the
///          parked bit, kicks us — or for kParkRecheckNs at most, after
///          which the word is re-checked: a park CAS that landed between
///          the server's load and its done store is never kicked.
///
/// `deadline` is an absolute host_cycles() tick, 0 for none. A waiter
/// holding one never parks: each yield round checks the clock and, on
/// expiry, abandons with a CAS from kCellPosted. A completion that races
/// the expiry wins, so the caller takes the real result rather than
/// reporting a deadline it missed by nanoseconds.
///
/// Returns the final state word: kCellDone | status (the reply is in
/// cell.regs; the caller copies it out — the server has already retired
/// the cell, and only this caller can post into it again), or
/// kCellAbandoned (the cell is the server's, which skips it).
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
      return v;  // lost to the completing store: v is its done word
    }
    help();
    const std::uint32_t v = cell.state.load(std::memory_order_acquire);
    if ((v & kCellDone) != 0) return v;
    if (deadline != 0 || yield_rounds == kNeverPark ||
        round++ < yield_rounds) {
      std::this_thread::yield();
      continue;
    }
    // Ladder exhausted: park. By now we have posted our cell and signalled
    // it, so the slot's current ownership holder (owner poll/serve, or a
    // helping thief) is guaranteed to reach it and kick us.
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
      // Sleeps while the word still reads kCellParked: the server's done
      // store changes it and, if its load saw the park, kicks us. A kick
      // missed in that window costs one bounded sleep; wakes of any kind
      // re-run the loop.
      park_on(cell.state, kCellParked, kParkRecheckNs);
    }
  }
}

}  // namespace hppc::rt
