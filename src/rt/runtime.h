// The PPC pattern as a host library: per-slot worker and call-descriptor
// pools, a replicated-by-construction service table, and a fast path that
// executes the service handler on the calling thread with NO locks and NO
// shared mutable data — one relaxed atomic load to resolve the entry point
// is the only synchronization a warm call performs.
//
// Semantics mirror the simulated facility: 8 words in/out through a RegSet,
// opcode+flags+rc packed in the last word, caller identified by a program
// token (§4.1), workers created on demand with a one-time init routine
// (§4.5.3), hold-CD mode, soft/hard kill (§4.5.2), and async calls
// deferred to the owning slot.
//
// Cross-slot traffic (the paper's cross-processor path, §4.5.2) rides the
// xcall layer: per-slot bounded MPSC rings of cache-line cells. Every
// cross-slot call — call_remote, call_remote_batch, call_remote_async,
// call_remote_frame and call_remote_frame_batch — is a thin wrapper over
// one private engine, submit(), which runs screen → admit → direct | post
// → wait → complete over a span of requests. A single call is a batch of
// one; async is "post, don't wait"; the typed and frame lanes differ only
// in a small request policy (screen, encode a cell, execute, copy the
// reply out), just as the paper's async and upcall variants reuse its sync
// machinery. The direct stage runs the call on an idle target slot
// (LRPC-style ownership handoff through the SlotGate); the post stage
// claims ring cells and the wait stage spins, yields and finally parks on
// their state words; each sync reply comes back in its own cell
// (rt/xcall.h), so a call owns one ring slot and no other object. The legacy allocating mailbox survives only as
// the control-plane/overflow channel (kill reclamation, ring-full async
// posts). A warm cross-slot call performs zero heap allocations, asserted
// by the mailbox_allocs counter.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/cacheline.h"
#include "common/status.h"
#include "common/tsc.h"
#include "common/types.h"
#include "mem/arena.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "ppc/regs.h"
#include "rt/frame_abi.h"
#include "rt/percpu.h"
#include "rt/request_ctx.h"
#include "rt/xcall.h"

namespace hppc::rt {

using ppc::RegSet;

class Runtime;
class RtWorker;

/// What a handler sees while servicing a call.
class RtCtx {
 public:
  RtCtx(Runtime& rt, SlotId slot, RtWorker& worker, ProgramId caller)
      : rt_(rt), slot_(slot), worker_(worker), caller_(caller) {}

  Runtime& runtime() { return rt_; }
  SlotId slot() const { return slot_; }
  ProgramId caller_program() const { return caller_; }

  /// The worker's stack buffer for this call (one page, recycled LIFO
  /// across services on this slot, exactly like the paper's stacks).
  std::span<std::byte> stack();

  /// Worker-initialization protocol (§4.5.3).
  void set_worker_handler(std::function<void(RtCtx&, RegSet&)> h);

  /// Nested call to another service from inside a handler.
  Status call(EntryPointId id, RegSet& regs);

  /// Cooperative cancellation probe for long handlers: true when the
  /// ambient request this handler is executing under has been cancelled or
  /// its inherited deadline has expired. A handler that observes true
  /// should abandon its remaining work and return promptly (the runtime
  /// cannot preempt a running handler; the probe is how deep loops keep
  /// the cancel latency bounded).
  bool cancellation_requested() const;

 private:
  Runtime& rt_;
  SlotId slot_;
  RtWorker& worker_;
  ProgramId caller_;
};

using RtHandler = std::function<void(RtCtx&, RegSet&)>;

struct RtServiceConfig {
  std::string name = "service";
  bool hold_cd = false;
  std::uint32_t pool_target = 1;
};

/// What a synchronous cross-slot caller does when the target ring is full.
enum class RetryPolicy : std::uint8_t {
  /// Legacy behaviour: retry forever (help-drain the target when its owner
  /// parks, otherwise yield). Never returns kOverloaded.
  kBlock,
  /// Bounded exponential backoff: burn a doubling cpu_relax budget per
  /// round (booked as backoff_cycles), help-drain between rounds, and give
  /// up with kOverloaded after `backoff_rounds` failed posts.
  kBackoff,
  /// Return kOverloaded on the first full ring, without waiting at all.
  kFailFast,
};

/// Per-call knobs for Runtime::call / call_remote. The default-constructed
/// value reproduces the legacy behaviour exactly (no deadline, block on a
/// full ring), so existing callers see an identical hot path.
struct CallOptions {
  /// Relative deadline in host_cycles() ticks; 0 = no deadline. When it
  /// expires before the call completes the caller abandons the wait and
  /// gets kDeadlineExceeded — the handler may or may not have executed
  /// (timed-out-RPC semantics); the in-flight cell is reclaimed safely.
  /// Only meaningful for cross-slot calls: a same-slot call executes
  /// inline on the calling thread and cannot be abandoned mid-handler.
  std::uint64_t deadline_cycles = 0;
  RetryPolicy retry = RetryPolicy::kBlock;
  /// kBackoff only: failed post attempts before giving up. The spin budget
  /// doubles each round (capped at 1024 cpu_relax rounds per attempt).
  std::uint32_t backoff_rounds = 16;
  /// Admission/drain priority (see rt/request_ctx.h). kBulk requests are
  /// shed first when the target saturates (the bulk shed watermark) and
  /// drained after interactive doorbells.
  TrafficClass traffic_class = TrafficClass::kInteractive;
  /// Cancel handle from Runtime::cancel_token_create(); 0 = not
  /// cancellable. A cancelled call — and every nested call it makes —
  /// completes with kCallAborted at the next seam.
  CancelToken cancel_token = 0;

  /// Resolve this call's absolute deadline against an inherited ambient
  /// bound. Relative→absolute conversion happens exactly once, here (one
  /// host_cycles() read, only when a relative deadline is set), and the
  /// result is clamped so a nested call may tighten the root's budget but
  /// never extend it. Returns 0 when neither side has a bound.
  std::uint64_t with_budget(std::uint64_t inherited_abs) const {
    const std::uint64_t mine =
        deadline_cycles != 0 ? host_cycles() + deadline_cycles : 0;
    return RequestCtx::clamp_deadline(inherited_abs, mine);
  }
};

/// A call descriptor: return info slot + the stack buffer (§2). Both the
/// descriptor and its one-page stack live in the runtime arena, on the
/// owning slot's NUMA node; the arena reclaims the storage wholesale at
/// Runtime destruction (RtCd is trivially destructible by design).
struct RtCd {
  std::byte* stack = nullptr;  // one arena page, node-local
  RtCd* next = nullptr;        // slot-local free list
};

class RtWorker {
 public:
  explicit RtWorker(RtHandler handler) : handler_(std::move(handler)) {}

  RtHandler& handler() { return handler_; }

  /// Stage a replacement handler. Only reachable from inside this worker's
  /// own handler (via RtCtx::set_worker_handler, the §4.5.3 init protocol),
  /// so the swap is deferred until the current call returns — the live
  /// handler_ is never destroyed mid-invocation and the fast path can invoke
  /// it by reference instead of copying a std::function on every call.
  void set_handler(RtHandler h) {
    pending_handler_ = std::move(h);
    has_pending_handler_ = true;
  }
  bool has_pending_handler() const { return has_pending_handler_; }
  void commit_pending_handler() {
    handler_ = std::move(pending_handler_);
    pending_handler_ = nullptr;
    has_pending_handler_ = false;
  }

  RtCd* held_cd = nullptr;   // hold-CD mode
  RtCd* active_cd = nullptr;
  RtWorker* next = nullptr;  // slot-local pool link

 private:
  RtHandler handler_;
  RtHandler pending_handler_;
  bool has_pending_handler_ = false;
};

class Runtime {
 public:
  /// `slots` = maximum participating threads (0 = hardware concurrency).
  explicit Runtime(std::uint32_t slots = 0, bool pin_threads = false);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Register the calling thread; must be called before it makes calls.
  /// Claims the slot's gate: from this point remote callers use the ring
  /// (drained by poll()) until the thread parks via serve()/enter_idle().
  SlotId register_thread();

  std::uint32_t slots() const { return registry_.capacity(); }

  // ----- binding (slow path; internally locked) -----

  EntryPointId bind(RtServiceConfig cfg, ProgramId program,
                    RtHandler initial_handler);

  /// Soft kill: new calls fail with kEntryPointDraining/kNoSuchEntryPoint;
  /// pooled resources are reclaimed lazily by each slot.
  Status soft_kill(EntryPointId id);

  /// Hard kill: like soft kill, plus reclamation requests are posted to
  /// every slot's mailbox immediately.
  Status hard_kill(EntryPointId id);

  // ----- the fast path -----

  /// Synchronous call on the calling thread's slot. regs[kOpWord] carries
  /// opcode+flags in and rc out. `caller` is the caller's program token.
  Status call(SlotId slot, ProgramId caller, EntryPointId id, RegSet& regs);

  /// Same-slot call with per-call options. A local call executes the
  /// handler inline, so the deadline/retry knobs have nothing to act on —
  /// the overload exists so generic callers can pass one options struct to
  /// either path (and so fault sites screen it like any other call).
  Status call(SlotId slot, ProgramId caller, EntryPointId id, RegSet& regs,
              const CallOptions& opts);

  /// Asynchronous call: queued on this slot, executed at the next poll().
  Status call_async(SlotId slot, ProgramId caller, EntryPointId id,
                    RegSet regs);

  // ----- cross-slot calls (xcall) -----

  /// Synchronous cross-slot PPC: execute `id` against `target`'s slot
  /// state, from the thread owning `caller_slot`. Adaptive: if the target
  /// slot is idle (parked in serve(), or never registered) the call is
  /// direct-executed on the calling thread under a gate steal — zero
  /// context switches, zero allocations; otherwise a cell is posted into
  /// the target's bounded ring and the caller spin-then-yields on the
  /// completion word, helping (stealing + draining) if the owner parks
  /// meanwhile. `target == caller_slot` degenerates to a local call().
  /// Requires the target slot to be either idle-gated or actively
  /// poll()ing/serve()ing — like the mailbox, the ring is at-least-
  /// eventually drained by construction only under that contract.
  Status call_remote(SlotId caller_slot, SlotId target, ProgramId caller,
                     EntryPointId id, RegSet& regs);

  /// call_remote with per-call robustness knobs: a relative deadline
  /// (host_cycles ticks) after which the caller abandons the wait with
  /// kDeadlineExceeded, and a retry policy for the ring-full case (block /
  /// bounded backoff / fail fast — the latter two return kOverloaded when
  /// the budget runs out). An abandoned cell stays in the ring until the
  /// server reaches it and releases it; a deadline waiter never parks.
  Status call_remote(SlotId caller_slot, SlotId target, ProgramId caller,
                     EntryPointId id, RegSet& regs, const CallOptions& opts);

  /// Batched synchronous cross-slot PPC: submit every RegSet in `batch`
  /// against `target` and wait for all of them. On an idle target one gate
  /// steal direct-executes the whole batch; otherwise the batch is posted
  /// in chunks of up to XcallRing::kCapacity cells, each chunk claimed
  /// with ONE CAS and published with ONE release store + ONE doorbell
  /// (see XcallRing::try_post) — a burst of M calls costs ~1 cross-slot
  /// line transfer instead of M. Per-call results land in each RegSet's rc
  /// word; the return value is the first non-kOk rc (kOk if all passed).
  /// Zero heap allocations: each reply comes back in its own cell.
  Status call_remote_batch(SlotId caller_slot, SlotId target,
                           ProgramId caller, EntryPointId id,
                           std::span<RegSet> batch);

  /// call_remote_batch with per-call options: a deadline (applies to the
  /// whole batch; carried in every cell so the server also refuses to
  /// execute expired cells late), and the retry policy governs each chunk post exactly as in call_remote —
  /// both run the same engine, so a kBackoff batch against a full ring
  /// gives up with kOverloaded after `backoff_rounds` failed posts.
  Status call_remote_batch(SlotId caller_slot, SlotId target,
                           ProgramId caller, EntryPointId id,
                           std::span<RegSet> batch, const CallOptions& opts);

  /// Fire-and-forget cross-slot call: posted into the target's ring (or,
  /// if the ring is full, the legacy mailbox — the allocating overflow
  /// path) and executed at the target's next drain. Results discarded.
  Status call_remote_async(SlotId caller_slot, SlotId target,
                           ProgramId caller, EntryPointId id, RegSet regs);

  /// call_remote_async with options. Only the deadline acts here: it is
  /// carried in the posted cell (and checked by the mailbox overflow
  /// lambda), and a cell that drains after its deadline is dropped —
  /// counted as deadline_exceeded on the target slot — instead of being
  /// executed late. kFailFast additionally turns the ring-full overflow
  /// into an immediate kOverloaded instead of an allocating mailbox post.
  Status call_remote_async(SlotId caller_slot, SlotId target,
                           ProgramId caller, EntryPointId id, RegSet regs,
                           const CallOptions& opts);

  // ----- the frame ABI (Figure 4 register contract) -----
  //
  // The lean call lane: a CallFrame carries 8 words each way plus the
  // packed opcode|flags|service word, resolved through a flat table of raw
  // function pointers — no Service lookup, no worker/CD acquisition, no
  // std::function. The same-slot call_frame books no histogram and no
  // span. Cross-slot frame calls ride the same engine as typed ones (same
  // admission, retry, wait ladder, histograms and spans) and inline the
  // whole request in the 64 B XcallCell; because the cell's deadline lane
  // carries the op word, a frame's ambient deadline is checked at
  // admission only, never in flight.

  /// Register a frame service: `fn` is invoked with `self` on every call.
  /// `self` must outlive the runtime (or the service's last call). Slow
  /// path, internally locked.
  FrameServiceId bind_frame(ProgramId program, FrameFn fn, void* self);

  /// Unbind: subsequent frame calls to `id` fail with kNoSuchEntryPoint;
  /// in-flight cells drain with the same status. The table slot is not
  /// reused.
  Status unbind_frame(FrameServiceId id);

  /// Same-slot frame call: one acquire load of the table entry, one
  /// indirect call, one counter store. Replies in f.w; rc packed into
  /// f.op's rc byte (also returned).
  Status call_frame(SlotId slot, ProgramId caller, CallFrame& f);

  /// Synchronous cross-slot frame call: call_remote's engine with the frame
  /// request policy. Direct-executes under a gate steal when the target is
  /// idle, else inlines the frame in a ring cell and waits on the
  /// completion word. Zero heap allocations on either path.
  Status call_remote_frame(SlotId caller_slot, SlotId target,
                           ProgramId caller, CallFrame& f);

  /// Batched cross-slot frame calls: chunks of up to XcallRing::kCapacity
  /// cells, each chunk claimed with ONE CAS and published with ONE release
  /// store + ONE doorbell. Frames in one batch may carry different op
  /// words; a batch naming any unbound frame service is refused whole at
  /// admission. Per-frame rc lands in each frame's op word; returns the
  /// first non-kOk rc.
  Status call_remote_frame_batch(SlotId caller_slot, SlotId target,
                                 ProgramId caller,
                                 std::span<CallFrame> batch);

  // ----- the memory arena (node-local placement) -----

  /// The runtime's hugepage-first, node-local arena. Every hot per-slot
  /// structure — rings, CD stacks, histogram blocks — lives
  /// here, on its slot's node. Layers above (KvService's replicated hot
  /// set) may co-locate their own slot structures through this.
  mem::Arena& arena() { return arena_; }

  /// Arena gauges (also overlaid into snapshot() as the arena_* counters).
  mem::ArenaStats arena_stats() const { return arena_.stats(); }

  /// The node a slot's structures are placed on: slots stripe round-robin
  /// across the visible NUMA nodes (with pinned threads, slot s runs on
  /// CPU s % ncpus, which Linux enumerates node-major on the sane
  /// topologies we target — see docs/MEMORY.md).
  NodeId node_of_slot(SlotId slot) const { return slot % arena_.nodes(); }

  /// Drain this slot's ring (one batch), mailbox, and deferred/async
  /// queue. Owner thread only. Returns the number of actions performed.
  std::size_t poll(SlotId slot);

  /// Owner's service loop: poll, then park idle — publishing the slot for
  /// remote direct execution — until `stop` or new work arrives. Returns
  /// total actions performed. The gate is re-held (kOwner) on return.
  std::size_t serve(SlotId slot, const std::atomic<bool>& stop);

  /// Park/unpark primitives behind serve(): while idle, remote callers
  /// direct-execute on this slot instead of waiting for a poll. Owner
  /// thread only; must not be mid-call. Doorbell bits left set are
  /// cleared by the first thief, which hands the gate back settled.
  void enter_idle(SlotId slot);
  void exit_idle(SlotId slot);

  // ----- overload shedding (admission control) -----

  /// Arm per-slot admission control: a cross-slot call (sync or async)
  /// whose target ring already holds >= `depth` undrained cells is shed
  /// with kOverloaded instead of being queued — in-flight work keeps
  /// draining, new work is refused at the door. 0 (the default) disables
  /// shedding. The depth read is a racy two-load snapshot; an off-by-a-few
  /// answer just moves the threshold by that much for one call.
  ///
  /// Concurrency contract: any thread may retune the watermark while
  /// callers are admitting. Both sides use memory_order_relaxed on an
  /// atomic word — deliberately. The watermark is a tuning knob, not a
  /// synchronization point: an admission check that reads the old value
  /// for one more call is exactly as correct as one that raced the store
  /// the other way, and no other state is published through this word, so
  /// no ordering stronger than relaxed buys anything. The atomic (rather
  /// than a plain word) is what makes the torn-read impossible and the
  /// intent visible to TSan.
  void set_shed_watermark(std::uint32_t depth) {
    for (auto& w : shed_watermark_) w.store(depth, std::memory_order_relaxed);
  }
  std::uint32_t shed_watermark() const {
    return shed_watermark(TrafficClass::kInteractive);
  }

  /// Per-class watermarks: give kBulk a LOWER depth than kInteractive and
  /// bulk traffic absorbs the shedding first while interactive requests
  /// keep being admitted — the criticality-aware degradation the overload
  /// bench's per-class curves demonstrate. The classless setter above
  /// retunes both (legacy behaviour).
  void set_shed_watermark(TrafficClass cls, std::uint32_t depth) {
    shed_watermark_[static_cast<std::size_t>(cls)].store(
        depth, std::memory_order_relaxed);
  }
  std::uint32_t shed_watermark(TrafficClass cls) const {
    return shed_watermark_[static_cast<std::size_t>(cls)].load(
        std::memory_order_relaxed);
  }

  // ----- request contexts (deadline/cancel/class propagation) -----
  //
  // The ambient RequestCtx is the cross-cutting twin of the trace context:
  // installed on a slot, it rides every call the slot makes — same-slot,
  // remote, batched, async — through the xcall cell to the server slot,
  // where it is re-installed around the handler so NESTED calls inherit
  // it. CallOptions::deadline_cycles folds into the ambient budget under
  // the remaining-budget clamp (tighten, never extend); every admission
  // and drain seam checks the effective deadline (kDeadlineExceeded) and
  // cancel flag (kCallAborted), so an expired or cancelled root request
  // stops its whole tree at the next seam instead of executing late.

  /// Allocate a cancel token. Tokens are handles into a fixed pool of
  /// kMaxCancelTokens flags; allocation is wait-free (one fetch_add) and
  /// clears the slot it maps to, so reuse after 2^14 intervening
  /// allocations is benign-stale (documented in rt/request_ctx.h). Safe
  /// from any thread.
  CancelToken cancel_token_create();

  /// Raise `token`'s cancel flag, then best-effort sweep: for every slot
  /// whose gate is idle, steal it and drain its rings so already-posted
  /// cells carrying the token complete kCallAborted NOW (via the normal
  /// drain-side check) instead of at the owner's next poll. Cells on busy
  /// slots are refused when their drain reaches them; parked callers are
  /// kicked by that completion — the existing abandon/complete CAS
  /// protocol does all the lifetime work. Safe from any thread.
  void cancel(CancelToken token);

  /// Has cancel() been called for this token? (0 is never cancelled.)
  bool cancel_requested(CancelToken token) const;

  /// Re-point the cancel pool at external storage: `flags` must be a
  /// zero-initialised array of kMaxCancelTokens atomic words and
  /// `next_token` a shared allocation cursor (>= 1). The intended caller
  /// is the shm transport (src/shm/), which places both inside the
  /// cross-process segment so a peer's cancel(token) raises a flag this
  /// runtime's drain-side sweep reads directly — cancellation crosses the
  /// process boundary through the same one-relaxed-load check the
  /// in-process path uses. Call before any traffic (tokens minted from
  /// the old pool do not transfer); the previously owned pool is retained
  /// but unused. Storage must outlive this Runtime.
  void adopt_cancel_pool(std::atomic<std::uint32_t>* flags,
                         std::atomic<std::uint32_t>* next_token);

  /// Ambient probe: is the request `slot` is currently executing under
  /// cancelled or past its deadline? Handlers reach this through
  /// RtCtx::cancellation_requested(). Owner thread only.
  bool cancellation_requested(SlotId slot) const;

  /// Install / read / clear the slot's ambient request context directly
  /// (root callers that want a context without threading CallOptions
  /// through every stub; tests). Owner thread only. call/call_remote*
  /// save and restore this around handler execution, so installing it
  /// before a call tree and clearing it after is the whole discipline.
  void set_request_ctx(SlotId slot, const RequestCtx& ctx);
  RequestCtx request_ctx(SlotId slot) const;
  void clear_request_ctx(SlotId slot);

  /// Post a cross-slot action (host analogue of an IPI); it runs when the
  /// owning thread next polls. Control-plane path: allocates a mailbox
  /// node per post (booked as mailbox_allocs) — cross-slot *calls* belong
  /// on call_remote, which does not.
  void post(SlotId target, std::function<void()> fn);

  // ----- request tracing (spans recorded only under HPPC_TRACE) -----

  /// Start a new trace rooted at `slot`: mints a trace id, installs the
  /// context as the slot's current one (subsequent calls from this slot
  /// become spans of it), and emits the root kSpanBegin. In non-trace
  /// builds this returns an untraced (zeroed) context and records nothing.
  /// Owner thread only.
  obs::TraceCtx trace_begin(SlotId slot);

  /// End the trace started by trace_begin (emits the root kSpanEnd and
  /// clears the slot's current context). Owner thread only.
  void trace_end(SlotId slot, Status rc = Status::kOk);

  /// Install / read the slot's current request context (propagation across
  /// layers that carry their own context, e.g. tests). Owner thread only.
  void set_trace_ctx(SlotId slot, const obs::TraceCtx& ctx);
  obs::TraceCtx trace_ctx(SlotId slot) const;

  // ----- histograms & telemetry -----

  /// Latency histograms are sampled, counters are not. A call that would
  /// stamp a histogram (sync, remote, batched-chunk and async RTTs, ring
  /// wait) reads the clock only if it is its slot's 1-in-`period` sampled
  /// call: each slot counts calls down from the period and times the call
  /// that reaches zero, then reloads the countdown from this setting. The
  /// unsampled call pays one slot-local decrement and branch, where timing
  /// every call would pay two serializing clock reads. Histogram counts
  /// are therefore samples, not calls; quantiles are unaffected.
  ///
  /// 1 times every call, 0 none (the period is then re-polled every
  /// kDefaultHistSamplePeriod calls). Any thread may change the period at
  /// any time (a relaxed store: a tuning knob, like the shed watermark);
  /// each slot picks it up at its next reload, not mid-countdown. The
  /// rare events that need a clock anyway — deadline checks and the
  /// park->kick kWakeup stamp — are not sampled.
  static constexpr std::uint32_t kDefaultHistSamplePeriod = 64;
  void set_hist_sample_period(std::uint32_t period) {
    hist_sample_period_.store(period, std::memory_order_relaxed);
  }

  /// The slot's always-on latency histogram block (single writer: the
  /// slot's ownership holder; racy-but-race-free reads for observers).
  const obs::SlotHistograms& histograms(SlotId slot) const;
  obs::SlotHistograms& slot_histograms(SlotId slot);

  /// One slot's histogram snapshot / the merge across all slots.
  obs::HistSnapshot hist_snapshot(SlotId slot) const;
  obs::HistSnapshot hist_snapshot() const;

  /// Continuous-telemetry snapshot: per-slot counter/histogram deltas since
  /// the previous telemetry() call folded into derived series (drain rate,
  /// ring-occupancy EWMA, estimated queueing delay — see obs/telemetry.h).
  /// The first call primes the baseline and reports a zero-length window.
  /// Safe from any thread (reads are racy-but-race-free; the derivation
  /// state itself is mutex-guarded — this is an observer path, not a fast
  /// path). Serialize with telemetry_to_json() for export.
  obs::Telemetry telemetry();

  // ----- introspection -----

  /// The slot's full observability block (single writer: the slot's own
  /// thread; read-only for observers).
  const obs::SlotCounters& counters(SlotId slot) const;

  /// Writable view of a slot's counter block, for slot-local layers built
  /// on top of the runtime (repl::ReplHub wires Replicated<T> reads into
  /// it). The single-writer discipline is the caller's contract: only the
  /// slot's current ownership holder may increment through this.
  obs::SlotCounters& slot_counters(SlotId slot);

  /// Counters for off-slot slow paths (bind, kill, cross-slot post).
  const obs::SharedCounters& shared_counters() const { return shared_; }

  /// One slot's snapshot with the derived pool counters filled in
  /// (worker_pool_hits, cd_recycles — see runtime.cpp).
  obs::CounterSnapshot slot_snapshot(SlotId slot) const;

  /// Merge of every slot block plus the shared block.
  obs::CounterSnapshot snapshot() const;

  /// The slot's trace ring (records only under HPPC_TRACE).
  obs::TraceRing& trace_ring(SlotId slot);

  std::size_t pooled_workers(SlotId slot, EntryPointId id) const;

  /// Racy snapshot of a slot's undrained ring depth (the quantity the shed
  /// watermark compares against). Atomic cursor loads — safe from any
  /// thread; tests use it to observe "a cell is parked" without racing the
  /// slot's plain-store counters.
  std::size_t xcall_depth(SlotId slot) const;

  /// Racy snapshot of a slot's doorbell word for traffic class `cls`
  /// (bit b = producer min(b, 63) may have cells queued). Tests use it to
  /// watch sticky bits clear once a slot goes quiet.
  std::uint64_t ready_mask(SlotId slot,
                           TrafficClass cls = TrafficClass::kInteractive) const;

 private:
  friend class RtCtx;

  enum class SvcState : std::uint8_t { kActive, kDraining, kDead };

  struct Service {
    RtServiceConfig cfg;
    ProgramId program;
    RtHandler initial_handler;
    std::atomic<SvcState> state{SvcState::kActive};
    EntryPointId id = kInvalidEntryPoint;
  };

  struct DeferredCall {
    ProgramId caller;
    EntryPointId id;
    RegSet regs;
    std::uint64_t enqueue_tsc = 0;  // host_cycles() at call_async; 0 unsampled
    obs::TraceCtx tctx{};           // trace context at enqueue time
    RequestCtx rctx{};              // request context at enqueue time
  };

  /// Everything one slot owns. Only the slot's current ownership holder —
  /// the registered thread while the gate reads kOwner, or a remote thief
  /// while it reads kStolen — touches the non-atomic members; all other
  /// threads go through the xcall ring (hot path) or mailbox (control
  /// plane). Gate transitions are acquire/release, so ownership handoff
  /// carries the slot state with it.
  struct Slot {
    SlotId self_id = 0;  // set once at construction; used by trace hooks
    NodeId node = 0;     // the NUMA node this slot's structures live on
    // Per-service worker pools, indexed by entry-point id (sparse).
    std::array<RtWorker*, kMaxEntryPoints> worker_pool{};
    RtCd* cd_pool = nullptr;
    obs::SlotCounters counters;
    // Calls left until the next histogram-sampled one (see
    // set_hist_sample_period). Same single-writer discipline as the
    // counters; starts at 1 so a slot's first call reloads it.
    std::uint32_t hist_countdown = 1;
    // The latency histogram block, arena-placed on this slot's node (it is
    // written on every sampled call — keeping it node-local keeps the
    // histogram store off the interconnect).
    obs::SlotHistograms* hists = nullptr;
    obs::TraceRing trace_ring;
    // Request-tracing state: the context the slot is currently executing
    // under (installed by trace_begin / restored around remote and async
    // execution) and the slot-local span-id allocator. Span ids are only
    // unique within a trace; 0 is "no span" everywhere, and the high bits
    // carry the slot id so two slots minting concurrently never collide.
    obs::TraceCtx cur_trace;
    std::uint32_t next_span = 1;
    // The ambient request context (deadline/cancel/class) the slot is
    // currently executing under. Same ownership discipline as cur_trace
    // (saved/restored around remote and deferred execution), but unlike
    // the trace context it is load-bearing in every build: nested calls
    // read it to inherit the root's budget.
    RequestCtx cur_req;
    std::vector<std::unique_ptr<RtWorker>> owned_workers;
    // CDs (and their stacks) are arena-placed on this slot's node; the
    // vector only tracks them for introspection — storage is the arena's.
    std::vector<RtCd*> owned_cds;
    std::vector<DeferredCall> deferred;
    std::vector<DeferredCall> deferred_scratch;  // reused across polls
    Mailbox<std::function<void()>> mailbox;
    // Remote-CASed by thieves: aligned off the mailbox head and deferred
    // queues the owner touches every poll (sharing their line measurably
    // slowed both the parked-owner direct call and the ring round trip).
    alignas(kHostCacheLine) SlotGate gate;
    // Per-producer xcall channels, indexed by the PRODUCER's slot id: each
    // (src, dst) pair gets its own ring, so concurrent posters to one slot
    // never CAS the same enqueue cursor (the rings stay MPSC internally
    // because layers like repl::ReplHub post with a shared caller slot).
    // Allocated once at construction from the arena, on this slot's node:
    // the consumer-side cells of every (src, this) channel sit in the
    // consumer's local memory — the paper's "structures live on the
    // processor's own station" rule applied to the ring layer.
    XcallRing* rings = nullptr;
    // The doorbell word. Bit b = min(src, 63) set means "rings[src] may
    // hold undrained cells". Bits are sticky: a producer sets its bit only
    // when it finds it clear, and the consumer clears it only after
    // kDoorbellIdlePolls consecutive empty visits, so a busy producer and
    // its consumer only ever load this line. Clearing is a handshake with
    // the posting producer (see drain_mask and ring_doorbell), so a cell is
    // never stranded behind a cleared bit. Idle poll is one load; drain
    // work is O(popcount), not O(nslots).
    alignas(kHostCacheLine) std::atomic<std::uint64_t> ready_mask{0};
    // The bulk doorbell word: producers posting kBulk-class cells ring
    // this mask instead, and the consumer's drain serves it only after
    // the interactive mask above — interactive-first drain ordering
    // without touching cells or rings. Same sticky protocol as ready_mask.
    // Own line: bulk posters must not bounce the interactive doorbell's
    // line.
    alignas(kHostCacheLine) std::atomic<std::uint64_t> bulk_ready_mask{0};
    // Consumer-private (ownership holder only): consecutive empty visits
    // per doorbell bit, one array per mask, and the full-scan ticker.
    alignas(kHostCacheLine) std::array<std::uint8_t, 64> idle_visits{};
    std::array<std::uint8_t, 64> bulk_idle_visits{};
    std::uint32_t polls_since_scan = 0;
  };

  /// Producers at or beyond the mask width share the last doorbell bit.
  static std::uint64_t doorbell_bit(SlotId src) {
    return 1ull << (src < 63 ? src : 63);
  }

  Service* lookup(EntryPointId id) const {
    if (id >= kMaxEntryPoints) return nullptr;
    return services_[id].load(std::memory_order_acquire);
  }

  /// One frame-table entry. `self`/`program` are written before the fn
  /// release-store at bind time and never change afterwards, so a caller's
  /// fn acquire-load licenses the plain reads — one load on the warm path.
  struct FrameService {
    std::atomic<FrameFn> fn{nullptr};
    void* self = nullptr;
    ProgramId program = 0;
  };

  /// The shared frame call body (same-slot fast path, direct execution
  /// under a gate steal, and ring-cell drain all funnel here): one table
  /// load, one indirect call, one counter store. Ownership of `slot` is
  /// held by the calling thread.
  Status execute_frame(Slot& slot, ProgramId caller, CallFrame& f);

  /// The per-call sampling decision (ownership of `slot` held): true for
  /// the call that counts the slot's countdown down to zero, which then
  /// reloads it from hist_sample_period_. One decision per call; the
  /// caller reads the clock only when it returns true.
  bool hist_sampled(Slot& slot) {
    if (--slot.hist_countdown != 0) [[likely]] return false;
    const std::uint32_t period =
        hist_sample_period_.load(std::memory_order_relaxed);
    slot.hist_countdown = period != 0 ? period : kDefaultHistSamplePeriod;
    return period != 0;
  }

  RtWorker* acquire_worker(Slot& slot, Service& svc);
  RtCd* acquire_cd(Slot& slot, RtWorker& w);
  void release(Slot& slot, Service& svc, RtWorker* w, RtCd* cd);
  void reclaim_service_on_slot(Slot& slot, EntryPointId id);
  Status kill(EntryPointId id, bool hard);

  /// The call body shared by the same-slot fast path and both remote
  /// execution modes: worker/CD acquire, handler, release. Caller has
  /// already resolved the service and booked the per-variant counter.
  Status execute_on_slot(Slot& slot, SlotId slot_id, Service& svc,
                         ProgramId caller, RegSet& regs);
  /// Execute one ring cell / remote request on `slot` (ownership held by
  /// the calling thread): re-checks service state, books calls_remote.
  Status execute_remote(Slot& slot, ProgramId caller, EntryPointId id,
                        RegSet& regs);

  /// What admission resolved for one cross-slot submission: the caller's
  /// ambient request context folded with the per-call options.
  struct Admission {
    std::uint64_t deadline = 0;  // absolute host_cycles(); 0 = none
    CancelToken token = 0;
    bool bulk = false;
  };
  /// The request policies of the two cross-slot lanes (runtime.cpp): how
  /// to screen a submission, encode a cell, execute a request directly and
  /// copy a reply out. Everything else is the engine's.
  struct TypedLane;
  struct FrameLane;
  /// The cross-slot engine behind every call_remote* wrapper: screen →
  /// admit → direct | post → wait → complete over `reqs`. `async` posts
  /// without waiting (no direct stage; a full ring overflows through the
  /// lane). Caller guarantees target != caller_slot. submit() runs the
  /// screen, admission and direct stages; an async submission, or one
  /// whose target gate is held, goes on to submit_ring(), which posts,
  /// waits and completes it chunk by chunk under the retry policy (a sync
  /// one through the out-of-line submit_ring_sync()).
  template <typename Lane>
  Status submit(const Lane& lane, SlotId caller_slot, SlotId target,
                ProgramId caller, std::span<typename Lane::Req> reqs,
                const CallOptions& opts, bool async = false);
  template <typename Lane>
  Status submit_ring_sync(const Lane& lane, SlotId caller_slot,
                          SlotId target, ProgramId caller,
                          std::span<typename Lane::Req> reqs,
                          const CallOptions& opts, Admission adm,
                          bool sampled, std::uint64_t t0);
  template <typename Lane>
  Status submit_ring(const Lane& lane, SlotId caller_slot, SlotId target,
                     ProgramId caller, std::span<typename Lane::Req> reqs,
                     const CallOptions& opts, Admission adm, bool async,
                     bool sampled, std::uint64_t t0);
  /// Refuse every request in `reqs` with `s` (rc set on each); a deadline
  /// or cancel refusal books one counter per refused call on `me`.
  template <typename Lane>
  static Status refuse_all(Slot& me, SlotId caller_slot, SlotId target,
                           std::span<typename Lane::Req> reqs, Status s);
  /// Drain one batch of one producer ring on `slot` (ownership held).
  /// Books xcall_batches, drops/fails expired-deadline cells, completes
  /// sync cells (kicking parked waiters).
  std::size_t drain_ring(Slot& slot, XcallRing& ring);
  /// Mask-guided drain (ownership held): load the doorbell words and drain
  /// exactly the flagged producer rings. Interactive doorbells are served
  /// before the bulk mask is consulted (books bulk_drains_deferred when
  /// the bulk pass drained cells after an interactive pass that did).
  /// O(1) when idle, O(popcount) when not.
  std::size_t drain_ready(Slot& slot);
  /// One doorbell word's drain pass (the body drain_ready runs per class):
  /// drains each flagged bit's rings, and clears a bit through the
  /// handshake after kDoorbellIdlePolls consecutive empty visits.
  std::size_t drain_mask(Slot& slot, std::atomic<std::uint64_t>& mask,
                         std::array<std::uint8_t, 64>& idle);
  /// Drain every ring doorbell bit `b` stands for (bit 63 aliases every
  /// producer at or beyond the mask width).
  std::size_t drain_bit(Slot& slot, std::uint32_t b);
  /// Clear every doorbell bit of `slot` through the handshake and drain
  /// what the re-check finds (ownership held). Used before ownership goes
  /// idle — serve() parking, a thief handing the gate back — so a slot
  /// nobody polls keeps an all-zero mask.
  std::size_t settle_doorbells(Slot& slot);
  /// Full-scan drain (ownership held): the doorbell pass, then every
  /// producer ring's head cell. The periodic liveness backstop for a cell
  /// published before its producer rang the doorbell.
  std::size_t drain_all(Slot& slot);
  /// Producer-side doorbell: after the cell is published, flag `src`'s
  /// ring in `tgt`'s ready mask (bulk_ready_mask when `bulk`), skipping
  /// the shared-line RMW when the bit is already set (booked as
  /// ready_mask_skips on `me`).
  void ring_doorbell(Slot& me, Slot& tgt, SlotId src, bool bulk = false);
  /// Racy any-head-cell-published scan, for serve()'s periodic idle
  /// recheck.
  bool any_ring_pending(const Slot& slot) const;
  /// Waiter-side progress: if `target`'s gate is idle, steal it, settle
  /// its doorbells (draining the flagged rings), drain the helper's OWN
  /// channel unconditionally — so a waiter's rescue never depends on a
  /// doorbell — and hand the gate back. Returns true if it drained.
  bool help_drain(Slot& target, SlotId self);
  /// Span bookkeeping (trace builds; no-ops otherwise). begin_span mints a
  /// span id on `slot`, emits kSpanBegin into its ring, and carries the
  /// rt.trace.drop failpoint — a dropped span returns id 0 (books
  /// trace_drops) and everything downstream of it quietly elides.
  std::uint32_t begin_span(Slot& slot, obs::SpanKind kind,
                           std::uint64_t trace_id, std::uint32_t parent);
  void end_span(Slot& slot, std::uint64_t trace_id, std::uint32_t span,
                std::uint32_t parent, Status rc);

  /// Observer-side telemetry state: previous snapshots and the occupancy
  /// EWMAs, advanced once per telemetry() call. Mutex-guarded — telemetry
  /// is an observer path; the fast path never touches this.
  struct TelemetryState {
    std::mutex mu;
    bool primed = false;
    std::uint64_t prev_ns = 0;
    std::uint64_t prev_cycles = 0;
    std::vector<obs::CounterSnapshot> prev_counters;
    std::vector<obs::HistSnapshot> prev_hists;
    std::vector<double> occ_ewma;
  };

  SlotRegistry registry_;
  bool pin_threads_;
  // Declared before slots_ so it outlives them: every slot's rings, CDs
  // and histogram block point into this arena.
  mem::Arena arena_;
  std::vector<CacheAligned<Slot>> slots_;
  std::array<std::atomic<Service*>, kMaxEntryPoints> services_{};
  std::array<FrameService, kMaxFrameServices> frame_services_{};
  std::uint32_t next_frame_service_ = 0;  // under bind_mutex_
  std::vector<std::unique_ptr<Service>> owned_services_;
  std::mutex bind_mutex_;  // slow path only
  obs::SharedCounters shared_;
  // Per-class admission watermarks (0 = shedding disabled for the class).
  std::array<std::atomic<std::uint32_t>, kNumTrafficClasses>
      shed_watermark_{};
  // Read by a slot only when its histogram countdown reloads.
  std::atomic<std::uint32_t> hist_sample_period_{kDefaultHistSamplePeriod};
  // The cancel-flag pool: token t maps to cancel_flags_[t % kMaxCancel-
  // Tokens]. Fixed-size so a token index fits the cell ep lane and lookup
  // is one relaxed load with no lifetime question. By default the pool is
  // process-private (owned_cancel_* below, allocated zeroed at
  // construction); adopt_cancel_pool() re-points both the flag array and
  // the allocation cursor at segment-resident storage so cancellation is
  // visible across processes. next_cancel_token never hands out index 0.
  std::unique_ptr<std::atomic<std::uint32_t>[]> owned_cancel_flags_;
  std::atomic<std::uint32_t> owned_next_cancel_token_{1};
  std::atomic<std::uint32_t>* cancel_flags_ = nullptr;
  std::atomic<std::uint32_t>* next_cancel_token_ = &owned_next_cancel_token_;
  TelemetryState telemetry_;
  EntryPointId next_ep_ = 8;
};

}  // namespace hppc::rt
