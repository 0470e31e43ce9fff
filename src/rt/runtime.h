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
// queued on the owning slot's own ring. Every call resolves through one
// entry-point table: an entry is either worker-backed (the paper's PPC)
// or a run-to-completion Figure-4 frame function (rt/frame_abi.h), and
// both obey the same kill rules.
//
// Cross-slot traffic (the paper's cross-processor path, §4.5.2) rides the
// xcall layer: one bounded single-producer ring of cache-line cells per
// (caller slot, target slot) pair. Every
// cross-slot call — call_remote, call_remote_batch, call_remote_async,
// call_remote_frame and call_remote_frame_batch — is a thin wrapper over
// one private engine, submit(), which runs screen → admit → direct | post
// → wait → complete over a span of requests. A single call is a batch of
// one; async is "post, don't wait"; every request is a Figure-4 frame (a
// RegSet is adapted to one), just as the paper's async and upcall variants
// reuse its sync machinery. The direct stage runs the call on an idle target slot
// (LRPC-style ownership handoff through the SlotGate); the post stage
// claims ring cells and the wait stage spins, yields and finally parks on
// their state words; each sync reply comes back in its own cell
// (rt/xcall.h), so a call owns one ring slot and no other object. The
// rings are a slot's only queue: same-slot call_async posts an async cell
// on the slot's own ring, a full ring refuses an async post with
// kOverloaded, and hard-kill reclamation is a per-slot reclaim word that
// poll() checks with one load (the IPI of §4.5.2). A warm cross-slot call
// performs zero heap allocations; the tests and benches audit that with a
// counted global operator new (common/heap_audit.h).
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
  /// A label for the caller's own bookkeeping: the runtime ignores it.
  std::string name = "service";
  bool hold_cd = false;
};

/// What a synchronous cross-slot caller does when the target ring is full.
enum class RetryPolicy : std::uint8_t {
  /// Legacy behaviour: retry forever (help-drain the target when its owner
  /// parks, otherwise yield). Never returns kOverloaded.
  kBlock,
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
  /// Admission/drain priority (see rt/request_ctx.h). kBulk requests are
  /// shed first when the target saturates (the bulk shed watermark), and
  /// a ring whose head cell is bulk is drained after the interactive ones.
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

/// The options every option-less call passes: one read-only object rather
/// than a temporary built on every call.
inline constexpr CallOptions kNoOptions{};

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
  //
  // Both kinds of entry draw their ids from one counter, and an id is
  // never reissued, not even after a hard kill.

  /// A worker-backed entry (the paper's PPC): each call runs `initial_handler`
  /// (or the handler a §4.5.3 init call installed) on a pooled worker with
  /// a CD.
  EntryPointId bind(RtServiceConfig cfg, ProgramId program,
                    RtHandler initial_handler);

  /// A frame entry: `fn` runs to completion with `self` on the calling or
  /// draining thread, with no worker and no CD. `self` must outlive the
  /// entry's last call, which may still run after hard_kill returns.
  EntryPointId bind(ProgramId program, FrameFn fn, void* self);
  FrameServiceId bind_frame(ProgramId program, FrameFn fn, void* self) {
    return bind(program, fn, self);
  }

  /// Soft kill: new calls fail with kEntryPointDraining, and so do calls
  /// already in flight that have not started; pooled resources are
  /// reclaimed lazily by each slot.
  Status soft_kill(EntryPointId id);

  /// Hard kill: new calls fail with kNoSuchEntryPoint, admitted calls that
  /// have not started complete with kCallAborted, and every slot's reclaim
  /// word is bumped immediately; each slot frees the entry's pooled
  /// workers and held CDs at its owner's next poll().
  Status hard_kill(EntryPointId id);

  // ----- the fast path -----

  /// Synchronous call on the calling thread's slot. regs[kOpWord] carries
  /// opcode+flags in and rc out. `caller` is the caller's program token.
  /// On a frame entry the RegSet is the frame: its 8 words are the payload
  /// and regs[kOpWord] is also the op word's low half, which comes back
  /// with the rc (word 7 of the handler's reply is overwritten by it).
  Status call(SlotId slot, ProgramId caller, EntryPointId id, RegSet& regs);

  /// Same-slot call with per-call options. A local call executes the
  /// handler inline, so the deadline/retry knobs have nothing to act on —
  /// the overload exists so generic callers can pass one options struct to
  /// either path (and so fault sites screen it like any other call).
  Status call(SlotId slot, ProgramId caller, EntryPointId id, RegSet& regs,
              const CallOptions& opts);

  /// Asynchronous call: an async cell on this slot's own ring, executed at
  /// the slot's next drain (poll(), serve(), or a thief's settle). It is
  /// call_remote_async with target == slot: the ambient request context is
  /// screened at admission and rides the cell, a cell that expires in
  /// flight is dropped, and an over-watermark ring sheds. A full ring
  /// (XcallRing::kCapacity undrained posts) refuses with kOverloaded. The
  /// drained call books calls_remote, like every ring cell; calls_async
  /// counts the accepted posts.
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
  /// poll()ing/serve()ing — the ring is at-least-eventually drained by
  /// construction only under that contract.
  ///
  /// Per-call robustness knobs (`opts`): a relative deadline
  /// (host_cycles ticks) after which the caller abandons the wait with
  /// kDeadlineExceeded, and a retry policy for the ring-full case (block,
  /// or fail fast with kOverloaded). An abandoned cell stays in the ring
  /// until the server reaches it and retires it; a deadline waiter never
  /// parks.
  Status call_remote(SlotId caller_slot, SlotId target, ProgramId caller,
                     EntryPointId id, RegSet& regs,
                     const CallOptions& opts = kNoOptions);

  /// Batched synchronous cross-slot PPC: submit every RegSet in `batch`
  /// against `target` and wait for all of them. On an idle target one gate
  /// steal direct-executes the whole batch; otherwise the batch is posted
  /// in chunks of up to XcallRing::kCapacity cells, each chunk claimed
  /// with plain stores and published with ONE release store + ONE gate check
  /// (see XcallRing::try_post) — a burst of M calls costs ~1 cross-slot
  /// line transfer instead of M. Per-call results land in each RegSet's rc
  /// word; the return value is the first non-kOk rc (kOk if all passed).
  /// Zero heap allocations: each reply comes back in its own cell.
  ///
  /// Per-call options: a deadline (applies to the whole batch; carried in
  /// every cell so the server also refuses to execute expired cells late),
  /// and the retry policy governs each chunk post exactly as in
  /// call_remote — both run the same engine, so a kFailFast batch against a
  /// full ring gives up with kOverloaded at its first failed post.
  Status call_remote_batch(SlotId caller_slot, SlotId target,
                           ProgramId caller, EntryPointId id,
                           std::span<RegSet> batch,
                           const CallOptions& opts = kNoOptions);

  /// Fire-and-forget call: posted into the target's ring and executed at
  /// the target's next drain. Results discarded. `target == caller_slot`
  /// posts on the slot's own ring (see call_async). A full ring refuses
  /// the post with kOverloaded (booked as xcall_ring_full): a caller that
  /// does not wait cannot wait for room either.
  ///
  /// Options: the deadline, cancel token and class act: they are screened
  /// at admission and carried in the posted cell, and a cell that drains
  /// after its deadline (or its token's cancel) is dropped — counted as
  /// deadline_exceeded (calls_cancelled) on the target slot — instead of
  /// being executed late. The retry policy is ignored: every async post
  /// fails fast on a full ring.
  Status call_remote_async(SlotId caller_slot, SlotId target,
                           ProgramId caller, EntryPointId id, RegSet regs,
                           const CallOptions& opts = kNoOptions);

  // ----- the frame ABI (Figure 4 register contract) -----
  //
  // The lean call lane: a CallFrame carries 8 words each way plus the
  // packed opcode|flags|entry word and names its entry itself. The
  // same-slot call_frame screens no request context and books no
  // histogram and no span. Cross-slot frame calls ride the same engine as
  // typed ones (same admission, retry, wait ladder, histograms and spans)
  // and inline the whole request in the 64 B XcallCell: the ambient
  // deadline, cancel token and class ride with it, and the entry runs
  // under them, direct or drained. A frame call to a worker-backed entry
  // runs its typed handler with word 7 replaced by the op word's low half
  // (the RegSet contract); the reply's word 7 is the handler's opflags.

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
  /// cells, each chunk claimed with plain stores and published with ONE
  /// release store + ONE gate check. Frames in one batch may carry different
  /// op words; a batch naming any unbound or killed entry is refused whole
  /// at admission. Per-frame rc lands in each frame's op word; returns the
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

  /// Reclaim the pooled resources of services hard-killed since the last
  /// poll (one load when none were), then drain every producer ring whose
  /// head cell is published, interactive heads first — at most a lap per
  /// ring per pass, so a handler that re-posts to its own slot cannot keep
  /// poll() from returning. Owner thread only. Returns the number of
  /// actions performed (services reclaimed plus cells drained).
  std::size_t poll(SlotId slot);

  /// Owner's service loop: poll, then park idle — publishing the slot for
  /// remote direct execution — until `stop`, a hard kill's reclaim bump or
  /// the slot's `queued` word says work arrived. Returns total actions
  /// performed. The gate is re-held (kOwner) on return.
  std::size_t serve(SlotId slot, const std::atomic<bool>& stop);

  /// Park/unpark primitives behind serve(): while idle, remote callers
  /// direct-execute on this slot instead of waiting for a poll. Owner
  /// thread only; must not be mid-call. enter_idle() publishes idle, then
  /// re-checks the ring heads and sets the slot's `queued` word if a cell
  /// is already waiting, so the next thief drains it before it hands the
  /// gate back.
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

  /// Per-class watermarks: give kBulk a LOWER depth than kInteractive and
  /// bulk traffic absorbs the shedding first while interactive requests
  /// keep being admitted — the criticality-aware degradation the overload
  /// bench's per-class curves demonstrate. The classless setter above
  /// retunes both (legacy behaviour).
  void set_shed_watermark(TrafficClass cls, std::uint32_t depth) {
    shed_watermark_[static_cast<std::size_t>(cls)].store(
        depth, std::memory_order_relaxed);
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

  /// Allocate a cancel token from the runtime's pool (CancelPool::create:
  /// wait-free, reuse after 2^14 intervening allocations is benign-stale,
  /// documented in rt/request_ctx.h). Safe from any thread.
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

  /// Re-point the cancel pool at external storage: `pool.flags` must be a
  /// zero-initialised array of kMaxCancelTokens atomic words and
  /// `pool.cursor` a shared allocation cursor (>= 1). The intended caller
  /// is the shm transport (src/shm/), which places both inside the
  /// cross-process segment so a peer's cancel(token) raises a flag this
  /// runtime's drain-side sweep reads directly — cancellation crosses the
  /// process boundary through the same one-load check the in-process path
  /// uses. Call before any traffic (tokens minted from the old pool do not
  /// transfer); the owned pool is retained but unused. Storage must
  /// outlive this Runtime.
  void adopt_cancel_pool(CancelPool pool);

  /// Install / read / clear the slot's ambient request context directly
  /// (root callers that want a context without threading CallOptions
  /// through every stub; tests). Owner thread only. call/call_remote*
  /// save and restore this around handler execution, so installing it
  /// before a call tree and clearing it after is the whole discipline.
  void set_request_ctx(SlotId slot, const RequestCtx& ctx);
  RequestCtx request_ctx(SlotId slot) const;
  void clear_request_ctx(SlotId slot);

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

  /// Read the slot's current trace context. Owner thread only.
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

  /// One slot's snapshot with the derived pool counters filled in
  /// (worker_pool_hits, cd_recycles — see runtime.cpp).
  obs::CounterSnapshot slot_snapshot(SlotId slot) const;

  /// Merge of every slot block plus the shared block.
  obs::CounterSnapshot snapshot() const;

#if defined(HPPC_TRACE) && HPPC_TRACE
  /// The slot's trace ring.
  obs::TraceRing& trace_ring(SlotId slot);
#else
  /// Shipped builds keep no per-slot ring (every HPPC_TRACE_EVENT compiles
  /// to nothing): this is one shared, empty ring that nothing writes, so
  /// exporters and span collectors see no records.
  const obs::TraceRing& trace_ring(SlotId slot) const;
#endif

  std::size_t pooled_workers(SlotId slot, EntryPointId id) const;

  /// Racy snapshot of a slot's undrained ring depth (the quantity the shed
  /// watermark compares against). Atomic cursor loads — safe from any
  /// thread. It counts cells from their claim, before they are published:
  /// a depth of n does not mean n cells are ready to drain yet.
  std::size_t xcall_depth(SlotId slot) const;

 private:
  friend class RtCtx;

  std::uint32_t shed_watermark(TrafficClass cls) const {
    return shed_watermark_[static_cast<std::size_t>(cls)].load(
        std::memory_order_relaxed);
  }

  /// Ambient probe: is the request `slot` is currently executing under
  /// cancelled or past its deadline? Handlers reach this through
  /// RtCtx::cancellation_requested(). Owner thread only.
  bool cancellation_requested(SlotId slot) const;

  /// An entry's life: kDead until bind publishes it and again after
  /// hard_kill, kDraining after soft_kill.
  enum class SvcState : std::uint8_t { kDead, kActive, kDraining };

  /// One entry of the service table (§4.1), alone on its half-line: the
  /// state, the hold-CD flag, the function (whose null is the kind) and
  /// its `self`, so a call resolves with one indexed load. bind writes the plain fields,
  /// then publishes them with the state's release store; they never change
  /// afterwards (ids are never reused), so a caller that acquired kActive
  /// reads them plainly.
  struct alignas(32) Entry {
    std::atomic<SvcState> state{SvcState::kDead};
    bool hold_cd = false;  // worker-backed entries only
    // A frame entry's function. Null marks a worker-backed entry, whose
    // `self` is the RtHandler its workers start from and whose calls book
    // calls_sync/calls_remote (the pool identities in
    // derive_pool_counters count them); a frame entry's calls book
    // calls_frame.
    FrameFn fn = nullptr;
    void* self = nullptr;
  };

  /// Everything one slot owns. Only the slot's current ownership holder —
  /// the registered thread while the gate reads kOwner, or a remote thief
  /// while it reads kStolen — touches the non-atomic members; all other
  /// threads go through the xcall rings or the reclaim word. Gate
  /// transitions are acquire/release, so ownership handoff carries the
  /// slot state with it.
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
#if defined(HPPC_TRACE) && HPPC_TRACE
    // 128 KiB of event records: trace builds only, so a shipped slot
    // neither carries nor zero-fills a ring no hook ever writes.
    obs::TraceRing trace_ring;
#endif
    // Request-tracing state: the context the slot is currently executing
    // under (installed by trace_begin / restored around remote and async
    // execution) and the slot-local span-id allocator. Span ids are only
    // unique within a trace; 0 is "no span" everywhere, and the high bits
    // carry the slot id so two slots minting concurrently never collide.
    obs::TraceCtx cur_trace;
    std::uint32_t next_span = 1;
    // The ambient request context (deadline/cancel/class) the slot is
    // currently executing under. Same ownership discipline as cur_trace
    // (saved/restored around remote and async execution), but unlike
    // the trace context it is load-bearing in every build: nested calls
    // read it to inherit the root's budget.
    RequestCtx cur_req;
    std::vector<std::unique_ptr<RtWorker>> owned_workers;
    // CDs (and their stacks) are arena-placed on this slot's node; the
    // vector only tracks them for introspection — storage is the arena's.
    std::vector<RtCd*> owned_cds;
    // Per-producer xcall channels, indexed by the PRODUCER's slot id: each
    // (src, dst) pair gets its own ring, whose one producer is whoever
    // holds the src slot; rings[self] carries the slot's own async calls
    // (call_async). Allocated once at construction from the arena, on this
    // slot's node: the consumer-side cells of every (src, this) channel
    // sit in the consumer's local memory — the paper's "structures live on
    // the processor's own station" rule applied to the ring layer. Off the
    // gate line: a parked owner's re-check reads it while thieves CAS the
    // gate.
    XcallRing* rings = nullptr;
    // Remote-CASed by thieves and loaded by every cross-slot post: aligned
    // off the slot state the owner touches every call and poll.
    alignas(kHostCacheLine) SlotGate gate;
    // The queued word: nonzero when a cell may wait in a ring nobody
    // polls. Only a slot whose gate is not kOwner needs it — an owner
    // finds its work by scanning its ring heads. A producer stores it
    // after its publish and a fence, when it loads the gate as not
    // kOwner; enter_idle() stores it when its re-check finds a head cell
    // (the idle handshake, see signal_queued). Whoever hands a stolen gate
    // back drains when it is set, and a parked serve() wakes on it.
    alignas(kHostCacheLine) std::atomic<std::uint32_t> queued{0};
    // The reclaim word (the host IPI of §4.5.2), on the line a parked
    // owner watches: hard_kill() bumps it with a release RMW, and a poll
    // that finds it changed since reclaim_seen sweeps worker_pool for
    // services that are gone.
    std::atomic<std::uint32_t> reclaim_epoch{0};
    std::uint32_t reclaim_seen = 0;  // reclaim_epoch at the last sweep
  };

  /// The entry screen: `id`'s entry while it is active, else nullptr with
  /// `rc` set — kEntryPointDraining for a soft-killed entry, `gone` for one
  /// that is unbound or hard-killed. One acquire load.
  const Entry* screen_entry(EntryPointId id, Status gone, Status& rc) const {
    const SvcState st = id < kMaxEntryPoints
                            ? entries_[id].state.load(std::memory_order_acquire)
                            : SvcState::kDead;
    if (st == SvcState::kActive) return &entries_[id];
    rc = st == SvcState::kDraining ? Status::kEntryPointDraining : gone;
    return nullptr;
  }

  /// The one request policy (runtime.cpp): every request is a Figure-4
  /// frame, and a RegSet is adapted to one.
  struct Lane;
  /// The one dispatch (ownership of `slot` held; the same-slot calls,
  /// direct execution under a gate steal and the ring drain all funnel
  /// here): screen the entry `r` names, book the call — `worker_ctr` for a
  /// worker-backed entry, calls_frame for a frame entry — run it and leave
  /// the rc in `r`. `gone` answers an unbound or killed entry.
  template <typename Req>
  Status dispatch(Slot& slot, ProgramId caller, const Lane& lane, Req& r,
                  obs::Counter worker_ctr, Status gone);
  /// Add an entry to the table under the bind lock; `handler`
  /// (worker-backed entries only) becomes its `self` and is owned by the
  /// runtime.
  EntryPointId add_entry(FrameFn fn, void* self, bool hold_cd,
                         std::unique_ptr<RtHandler> handler);

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

  RtWorker* acquire_worker(Slot& slot, EntryPointId id, const Entry& e);
  RtCd* acquire_cd(Slot& slot, RtWorker& w);
  void release(Slot& slot, EntryPointId id, const Entry& e, RtWorker* w,
               RtCd* cd);
  /// The reclaim-word handler (ownership held): reclaim every service this
  /// slot still pools workers for whose entry point is gone. Entry-point
  /// ids are never reused, so "gone" is exactly "hard-killed". Returns
  /// the number of services reclaimed.
  std::size_t reclaim_dead_services(Slot& slot);
  Status kill(EntryPointId id, bool hard);

  /// The worker-backed call body: worker/CD acquire, handler, release.
  /// The caller has already screened entry `id` (`e`) and booked the call.
  Status execute_on_slot(Slot& slot, EntryPointId id, const Entry& e,
                         ProgramId caller, RegSet& regs);
  /// The request screen (ownership of `slot` held): kDeadlineExceeded once
  /// `req`'s budget is spent, kCallAborted once its token is cancelled,
  /// else kOk. A refusal books `n` calls on `slot` (book_refusal).
  Status screen_request(Slot& slot, const RequestCtx& req, std::uint32_t arg,
                        std::size_t n = 1);
  /// Book `n` calls refused with `s` on `slot`: deadline_exceeded or
  /// calls_cancelled plus its trace event (`arg`: the entry point or
  /// target slot). Other statuses book nothing here.
  static void book_refusal(Slot& slot, Status s, std::uint32_t arg,
                           std::size_t n);
  /// The ambient fold (ownership of `slot` held): the slot's request
  /// context with the per-call options folded in. The relative deadline
  /// converts once and clamps against the inherited budget (tighten, never
  /// extend — CallOptions::with_budget); a token or the bulk class in
  /// `opts` overrides. Books deadline_inherited when the ambient budget
  /// survives the fold.
  RequestCtx fold_request(Slot& slot, const CallOptions& opts);

  /// The cross-slot engine behind every call_remote* wrapper: screen →
  /// admit → direct | post → wait → complete over `reqs` (RegSets or
  /// CallFrames). `async` posts without waiting (no direct stage; a full
  /// ring refuses with kOverloaded), also on the caller's own ring; a sync
  /// submission to the caller's own slot is a series of local calls.
  /// submit() runs the screen, admission and direct stages; an async
  /// submission, or one whose target gate is held, goes on to
  /// submit_ring(), which posts, waits and completes it chunk by chunk
  /// under the retry policy (a sync one through the out-of-line
  /// submit_ring_sync()).
  template <typename Req>
  Status submit(const Lane& lane, SlotId caller_slot, SlotId target,
                ProgramId caller, std::span<Req> reqs,
                const CallOptions& opts, bool async = false);
  template <typename Req>
  Status submit_ring_sync(const Lane& lane, SlotId caller_slot,
                          SlotId target, ProgramId caller,
                          std::span<Req> reqs, const CallOptions& opts,
                          RequestCtx req, bool sampled, std::uint64_t t0);
  template <typename Req>
  Status submit_ring(const Lane& lane, SlotId caller_slot, SlotId target,
                     ProgramId caller, std::span<Req> reqs,
                     const CallOptions& opts, RequestCtx req, bool async,
                     bool sampled, std::uint64_t t0);
  /// Drain one batch of one producer ring on `slot` (ownership held).
  /// Books xcall_batches, drops/fails expired-deadline cells, completes
  /// sync cells (kicking parked waiters).
  std::size_t drain_ring(Slot& slot, XcallRing& ring);
  /// The one drain path (ownership held): visit every producer ring's head
  /// cell and drain the rings whose head is interactive, then, in a second
  /// pass, those whose head is bulk (books bulk_drains_deferred when both
  /// passes drained cells). Visits the rings of the slots that have ever
  /// posted (ring_span_): two loads each when idle.
  std::size_t drain_rings(Slot& slot);
  /// Clear `slot`'s queued word, then drain every ring (ownership held):
  /// a post that signals after the clear stays signalled for the next
  /// holder.
  std::size_t drain_queued(Slot& slot);
  /// Hand a stolen gate back, draining first when the queued word is set —
  /// one load when it is not.
  void release_gate(Slot& slot);
  /// Producer side of the idle handshake, after the cell is published:
  /// a fence, then a load of `tgt`'s gate. An owned target finds the cell
  /// by its own scan (booked as ready_mask_skips on `me`); any other gets
  /// its queued word set.
  void signal_queued(Slot& me, Slot& tgt);
  /// Raise ring_span_ past `slot` (a slot's first post; at most once per
  /// slot).
  void widen_ring_span(SlotId slot);
  /// Waiter-side progress: if `target`'s gate is idle, steal it and hand
  /// it back through release_gate, which drains what is queued. Returns
  /// true if it stole the gate.
  bool help_drain(Slot& target);
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
  // Ring columns in use: 1 + the highest slot id that has ever posted —
  // a registered caller's or a stolen slot's under a direct call. Owners
  // scan only these rings; written at most once per slot, so it stays on
  // the read-mostly line with slots_.
  std::atomic<std::uint32_t> ring_span_{0};
  bool pin_threads_;
  // Declared before slots_ so it outlives them: every slot's rings, CDs
  // and histogram block point into this arena.
  mem::Arena arena_;
  std::vector<CacheAligned<Slot>> slots_;
  // The service table. Heap, not inline: 32 KiB would swell every
  // Runtime object (often a stack variable) sevenfold.
  std::unique_ptr<Entry[]> entries_ =
      std::make_unique<Entry[]>(kMaxEntryPoints);
  std::vector<std::unique_ptr<RtHandler>> owned_handlers_;
  std::mutex bind_mutex_;  // slow path only
  obs::SharedCounters shared_;
  // Per-class admission watermarks (0 = shedding disabled for the class).
  std::array<std::atomic<std::uint32_t>, kNumTrafficClasses>
      shed_watermark_{};
  // Read by a slot only when its histogram countdown reloads.
  std::atomic<std::uint32_t> hist_sample_period_{kDefaultHistSamplePeriod};
  // The cancel-flag pool. It points at the owned storage below (allocated
  // zeroed at construction) until adopt_cancel_pool() re-points it at a
  // segment's, so cancellation is visible across processes.
  std::unique_ptr<std::atomic<std::uint32_t>[]> owned_cancel_flags_;
  std::atomic<std::uint32_t> owned_next_cancel_token_{1};
  CancelPool cancel_pool_;
  TelemetryState telemetry_;
  EntryPointId next_ep_ = 8;  // under bind_mutex_; never reissued
};

}  // namespace hppc::rt
