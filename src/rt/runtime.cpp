#include "rt/runtime.h"

#include <algorithm>
#include <new>

#include "common/tsc.h"
#include "fault/failpoints.h"

namespace hppc::rt {

using ppc::rc_of;
using ppc::set_rc;

// ---------------------------------------------------------------------------
// RtCtx
// ---------------------------------------------------------------------------

std::span<std::byte> RtCtx::stack() {
  RtCd* cd = worker_.active_cd;
  HPPC_ASSERT_MSG(cd != nullptr, "stack() outside a call");
  return {cd->stack, kPageSize};
}

void RtCtx::set_worker_handler(std::function<void(RtCtx&, RegSet&)> h) {
  worker_.set_handler(std::move(h));
}

Status RtCtx::call(EntryPointId id, RegSet& regs) {
  return rt_.call(slot_, caller_, id, regs);
}

bool RtCtx::cancellation_requested() const {
  return rt_.cancellation_requested(slot_);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(std::uint32_t slots, bool pin_threads)
    : registry_(slots), pin_threads_(pin_threads), slots_(registry_.capacity()) {
  // Deliberate placement, not first-touch accident: every slot's hot
  // structures — its ring cells and its histogram block here; CD stacks
  // as they are pooled — come from the arena pool of the
  // slot's own node, so the warm path's stores stay on local memory.
#if !(defined(HPPC_TRACE) && HPPC_TRACE)
  static_assert(sizeof(Slot) < sizeof(obs::TraceRing),
                "a shipped slot carries no trace ring");
#endif
  const std::uint32_t cap = registry_.capacity();
  for (SlotId s = 0; s < cap; ++s) {
    Slot& slot = *slots_[s];
    slot.self_id = s;
    slot.node = node_of_slot(s);
    slot.rings = arena_.create_array<XcallRing>(slot.node, cap);
    slot.hists = arena_.create<obs::SlotHistograms>(slot.node);
  }
  // The cancel-flag pool. make_unique value-initializes it, so every
  // Runtime zero-fills its kMaxCancelTokens flags (64 KiB) here: every
  // flag starts clear. Heap, not arena: it is runtime-wide, not per-slot.
  // adopt_cancel_pool() may later re-point the pool at segment-resident
  // storage.
  owned_cancel_flags_ =
      std::make_unique<std::atomic<std::uint32_t>[]>(kMaxCancelTokens);
  cancel_pool_ = {owned_cancel_flags_.get(), &owned_next_cancel_token_};
}

void Runtime::adopt_cancel_pool(CancelPool pool) { cancel_pool_ = pool; }

EntryPointId Runtime::add_entry(FrameFn fn, void* self, bool hold_cd,
                               std::unique_ptr<RtHandler> handler) {
  HPPC_ASSERT((fn == nullptr) == (handler != nullptr));
  // Off-slot slow path: the bind lock and the table publication are
  // exactly the shared traffic the warm path avoids — book them.
  shared_.inc(obs::Counter::kBinds);
  shared_.inc(obs::Counter::kLocksTaken);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  std::lock_guard<std::mutex> lock(bind_mutex_);
  HPPC_ASSERT_MSG(next_ep_ < kMaxEntryPoints, "out of entry points");
  const EntryPointId id = next_ep_++;
  Entry& e = entries_[id];
  if (handler != nullptr) {
    self = handler.get();
    owned_handlers_.push_back(std::move(handler));
  }
  e.hold_cd = hold_cd;
  e.fn = fn;
  e.self = self;
  e.state.store(SvcState::kActive, std::memory_order_release);
  return id;
}

// The owning program (§4.1) is part of the binding contract; no call
// path consults it yet, so the table does not store it.
EntryPointId Runtime::bind(RtServiceConfig cfg, ProgramId /*program*/,
                           RtHandler initial_handler) {
  return add_entry(nullptr, nullptr, cfg.hold_cd,
                   std::make_unique<RtHandler>(std::move(initial_handler)));
}

EntryPointId Runtime::bind(ProgramId /*program*/, FrameFn fn, void* self) {
  return add_entry(fn, self, /*hold_cd=*/false, nullptr);
}

Status Runtime::kill(EntryPointId id, bool hard) {
  if (id >= kMaxEntryPoints ||
      entries_[id].state.load(std::memory_order_acquire) == SvcState::kDead) {
    return Status::kNoSuchEntryPoint;
  }
  shared_.inc(hard ? obs::Counter::kHardKills : obs::Counter::kSoftKills);
  shared_.inc(obs::Counter::kSharedLinesTouched);  // the state store below
  entries_[id].state.store(hard ? SvcState::kDead : SvcState::kDraining,
                           std::memory_order_release);
  if (hard) {
    // Per-slot resources may only be touched by their owner: interrupt
    // every slot (the reclaim word is the IPI of §4.5.2). Its next poll
    // sees the bump and reclaims whatever it pools for a service that is
    // gone. An RMW, so two racing kills can never merge into one change.
    for (auto& slot : slots_) {
      shared_.inc(obs::Counter::kSharedLinesTouched);
      slot->reclaim_epoch.fetch_add(1, std::memory_order_release);
    }
  }
  return Status::kOk;
}

Status Runtime::soft_kill(EntryPointId id) { return kill(id, /*hard=*/false); }
Status Runtime::hard_kill(EntryPointId id) { return kill(id, /*hard=*/true); }

std::size_t Runtime::reclaim_dead_services(Slot& slot) {
  // The acquire pairs with kill()'s bump, which follows its state store:
  // every kill counted in this epoch reads as dead below.
  slot.reclaim_seen = slot.reclaim_epoch.load(std::memory_order_acquire);
  std::size_t n = 0;
  for (EntryPointId id = 0; id < kMaxEntryPoints; ++id) {
    RtWorker* w = slot.worker_pool[id];
    if (w == nullptr ||
        entries_[id].state.load(std::memory_order_relaxed) !=
            SvcState::kDead) {
      continue;
    }
    slot.worker_pool[id] = nullptr;
    ++n;
    // The owned_workers vector keeps each worker's storage alive.
    for (; w != nullptr; w = w->next) {
      slot.counters.inc(obs::Counter::kWorkersReclaimed);
      HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                       obs::TraceEvent::kReclaim, id);
      if (w->held_cd != nullptr) {
        // Return the held CD (and its stack) to the slot's shared pool.
        w->held_cd->next = slot.cd_pool;
        slot.cd_pool = w->held_cd;
        w->held_cd = nullptr;
      }
    }
  }
  return n;
}

RtWorker* Runtime::acquire_worker(Slot& slot, EntryPointId id,
                                  const Entry& e) {
  RtWorker* w = slot.worker_pool[id];
  if (w != nullptr) {
    slot.worker_pool[id] = w->next;
    w->next = nullptr;
    return w;
  }
  // Slow path: create a worker initialized to the service's initial
  // (possibly one-time-init, §4.5.3) routine.
  slot.counters.inc(obs::Counter::kWorkersCreated);
  slot.counters.inc(obs::Counter::kSlowPathEntries);
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                   obs::TraceEvent::kWorkerCreate, id);
  auto owned = std::make_unique<RtWorker>(*static_cast<RtHandler*>(e.self));
  w = owned.get();
  slot.owned_workers.push_back(std::move(owned));
  if (e.hold_cd) {
    w->held_cd = acquire_cd(slot, *w);
  }
  return w;
}

// Inlined into the call body: a pooled CD is a few loads and stores, and
// an out-of-line call measurably slowed the same-slot call.
[[gnu::always_inline]] inline RtCd* Runtime::acquire_cd(Slot& slot,
                                                        RtWorker& w) {
  if (w.held_cd != nullptr) {
    slot.counters.inc(obs::Counter::kHoldCdHits);
    return w.held_cd;
  }
  RtCd* cd = slot.cd_pool;
  if (cd != nullptr) {
    slot.cd_pool = cd->next;
    cd->next = nullptr;
    return cd;
  }
  slot.counters.inc(obs::Counter::kCdsCreated);
  slot.counters.inc(obs::Counter::kSlowPathEntries);
  // Pool growth (slow path): descriptor and stack both land on the slot's
  // node. Page alignment keeps each stack to whole local pages.
  cd = arena_.create<RtCd>(slot.node);
  cd->stack =
      static_cast<std::byte*>(arena_.allocate(slot.node, kPageSize, kPageSize));
  slot.owned_cds.push_back(cd);
  return cd;
}

void Runtime::release(Slot& slot, EntryPointId id, const Entry& e, RtWorker* w,
                      RtCd* cd) {
  w->active_cd = nullptr;
  if (w->held_cd != cd) {
    cd->next = slot.cd_pool;
    slot.cd_pool = cd;
  }
  if (e.state.load(std::memory_order_acquire) == SvcState::kActive) {
    w->next = slot.worker_pool[id];
    slot.worker_pool[id] = w;
  } else if (w->held_cd != nullptr) {
    // Draining/dead: the worker is not re-pooled; free its held CD.
    w->held_cd->next = slot.cd_pool;
    slot.cd_pool = w->held_cd;
    w->held_cd = nullptr;
  }
}

Status Runtime::execute_on_slot(Slot& slot, EntryPointId id, const Entry& e,
                                ProgramId caller, RegSet& regs) {
  const SlotId slot_id = slot.self_id;
  // The shared call body: everything below is slot-local under the current
  // ownership — no atomics, no locks. Pool-hit and CD-recycle tallies are
  // derived at snapshot time from the slow-path counters instead of being
  // incremented per call (see derive_pool_counters).
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                   obs::TraceEvent::kCallEnter, id);
  // Fault seams for the resource-acquisition half of the call body:
  // simulate the worker pool (then the CD pool) being exhausted past even
  // Frank's reach — the §4.5.6 failure mode — without perturbing the real
  // pools.
  if (HPPC_FAULT_POINT("rt.worker.exhausted") ||
      HPPC_FAULT_POINT("rt.cd.exhausted")) {
    slot.counters.inc(obs::Counter::kFaultsInjected);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kFaultInject, id);
    set_rc(regs, Status::kOutOfResources);
    return Status::kOutOfResources;
  }
  RtWorker* w = acquire_worker(slot, id, e);
  RtCd* cd = acquire_cd(slot, *w);
  w->active_cd = cd;

  // Simulated handler abort (§4.5.2 in-flight failure): the worker and CD
  // were acquired, the handler never runs, resources are released below.
  bool aborted = false;
  if (HPPC_FAULT_POINT("rt.handler.abort")) {
    slot.counters.inc(obs::Counter::kFaultsInjected);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kFaultInject, id);
    set_rc(regs, Status::kCallAborted);
    aborted = true;
  }
  if (!aborted) {
    RtCtx ctx(*this, slot_id, *w, caller);
    // Invoked by reference: self-replacement (§4.5.3) is staged in the
    // worker and committed below, so no per-call std::function copy is
    // needed.
    w->handler()(ctx, regs);
    if (w->has_pending_handler()) w->commit_pending_handler();
  }

  release(slot, id, e, w, cd);
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                   obs::TraceEvent::kCallExit,
                   static_cast<std::uint32_t>(rc_of(regs)));
  return rc_of(regs);
}

/// The one request policy: every request is a Figure-4 frame. A CallFrame
/// names its own entry; a RegSet is the frame of `id` whose op word's low
/// half is regs[kOpWord]. Both carry their 8 words in `w`, so the engine
/// reads and writes a request through `w` and the op word's low half
/// alone. A drained cell is the same frame in the ring's format.
struct Runtime::Lane {
  EntryPointId id = kInvalidEntryPoint;  // names a RegSet request's entry

  EntryPointId entry(const RegSet&) const { return id; }
  static EntryPointId entry(const CallFrame& f) {
    return frame_service_of(f.op);
  }
  static EntryPointId entry(const XcallCell& c) { return cell_ep(c.ep); }
  static Word opflags(const RegSet& r) { return r[ppc::kOpWord]; }
  static Word opflags(const CallFrame& f) { return frame_opflags_of(f.op); }
  static void set_opflags(RegSet& r, Word o) { r[ppc::kOpWord] = o; }
  static void set_opflags(CallFrame& f, Word o) {
    store_op(f, (f.op & ~FrameWord{0xFFFFFFFFu}) | o);
  }
  static void set_rc(RegSet& r, Status s) { ppc::set_rc(r, s); }
  static void set_rc(CallFrame& f, Status s) {
    store_op(f, frame_with_rc(f.op, s));
  }
  /// One 8-byte store: the compiler would store only the bytes that
  /// changed, and the caller's next load of the whole op word (a reused
  /// frame's next call) would then stall on store forwarding.
  static void store_op(CallFrame& f, FrameWord op) {
    asm("" : "+r"(op));
    f.op = op;
  }
  /// Refuse every request in `rs` with `s`: the rc on each, the status
  /// back. Counters are booked where the refusal was decided.
  template <typename Req>
  static Status refuse(std::span<Req> rs, Status s) {
    for (Req& r : rs) set_rc(r, s);
    return s;
  }
  /// Run `body` on `r` as a `Want` (the form its entry's kind runs on): in
  /// place when `r` is one, else on a copy, out of line so the same-kind
  /// paths keep their tail calls. A frame run as a RegSet has its word 7
  /// replaced by its op word's low half, which takes the reply's back.
  template <typename Want, typename Req, typename Body>
  Status as(Req& r, Body&& body) const {
    if constexpr (std::is_same_v<Want, Req>) {
      return body(r);
    } else {
      return adapt<Want>(r, body);
    }
  }
  template <typename Want, typename Req, typename Body>
  [[gnu::noinline]] Status adapt(Req& r, Body& body) const {
    Want v{};
    if constexpr (std::is_same_v<Want, CallFrame>) v.op = FrameWord{id} << 32;
    v.w = r.w;
    set_opflags(v, opflags(r));
    const Status rc = body(v);
    r.w = v.w;
    set_opflags(r, opflags(v));
    return rc;
  }
  static void set_rc(XcallCell& c, Status s) {
    c.opflags = ppc::with_rc(c.opflags, s);
  }
  /// A drained cell is copied once, inline, into the form its entry runs
  /// on, and its reply written back once, after the body returns, so the
  /// caller's line is written once.
  template <typename Want, typename Body>
  Status as(XcallCell& c, Body&& body) const {
    Want v{};
    if constexpr (std::is_same_v<Want, RegSet>) {
      v = c.regs;
      v[ppc::kOpWord] = c.opflags;
    } else {
      v = cell_frame(c);
    }
    const Status rc = body(v);
    c.regs.w = v.w;
    c.opflags = opflags(v);
    return rc;
  }
};

// Inlined into every call site (same-slot, direct, drained): past the
// entry's one line, nothing but the entry's own body costs a call.
template <typename Req>
[[gnu::always_inline]] inline Status Runtime::dispatch(
    Slot& slot, ProgramId caller, const Lane& lane, Req& r,
    obs::Counter worker_ctr, Status gone) {
  Status rc = Status::kOk;
  const Entry* e = screen_entry(lane.entry(r), gone, rc);
  if (e == nullptr) return Lane::refuse(std::span<Req>(&r, 1), rc);
  if (worker_ctr == obs::Counter::kCallsRemote) {
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                     obs::TraceEvent::kRemoteCall, lane.entry(r));
  }
  // The bodies capture by value: a by-reference capture would keep
  // `caller` and `e` in memory on the same-kind paths too.
  if (e->fn == nullptr) {
    slot.counters.inc(worker_ctr);
    const EntryPointId id = lane.entry(r);
    return lane.as<RegSet>(r, [this, &slot, id, e, caller](RegSet& regs) {
      return execute_on_slot(slot, id, *e, caller, regs);
    });
  }
  slot.counters.inc(obs::Counter::kCallsFrame);
  return lane.as<CallFrame>(r, [this, &slot, e, caller](CallFrame& f) {
    FrameCtx ctx{this, slot.self_id, caller};
    const Status s = e->fn(e->self, ctx, f);
    Lane::set_rc(f, s);
    return s;
  });
}

// The request screen and the ambient fold are defined once, here, and
// inlined into every seam: the same-slot call, cross-slot admission, the
// full-ring give-up and the drain.
[[gnu::always_inline]] inline Status Runtime::screen_request(
    Slot& slot, const RequestCtx& req, std::uint32_t arg, std::size_t n) {
  Status s;
  if (req.abs_deadline_cycles != 0 &&
      host_cycles() >= req.abs_deadline_cycles) {
    s = Status::kDeadlineExceeded;
  } else if (req.cancel_token != 0 && cancel_requested(req.cancel_token)) {
    s = Status::kCallAborted;
  } else {
    return Status::kOk;
  }
  book_refusal(slot, s, arg, n);
  return s;
}

void Runtime::book_refusal(Slot& slot, Status s,
                           [[maybe_unused]] std::uint32_t arg, std::size_t n) {
  if (s == Status::kDeadlineExceeded) {
    slot.counters.inc(obs::Counter::kDeadlineExceeded, n);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                     obs::TraceEvent::kDeadlineExceeded, arg);
  } else if (s == Status::kCallAborted) {
    slot.counters.inc(obs::Counter::kCallsCancelled, n);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                     obs::TraceEvent::kCallCancelled, arg);
  }
}

namespace {
/// Install `req` as a slot's ambient context field by field. The caller
/// usually holds `req` in registers (folded or decoded from a cell); a
/// whole-struct copy makes the compiler rebuild it on the stack and reload
/// it with one wide load that store forwarding cannot serve, about 5 ns on
/// every direct call and every drained cell.
[[gnu::always_inline]] inline void install_req(RequestCtx& slot_req,
                                               const RequestCtx& req) {
  slot_req.abs_deadline_cycles = req.abs_deadline_cycles;
  slot_req.cancel_token = req.cancel_token;
  slot_req.traffic_class = req.traffic_class;
}
}  // namespace

[[gnu::always_inline]] inline RequestCtx Runtime::fold_request(
    Slot& slot, const CallOptions& opts) {
  const RequestCtx& ambient = slot.cur_req;
  RequestCtx req = ambient;
  req.abs_deadline_cycles = opts.with_budget(ambient.abs_deadline_cycles);
  if (opts.cancel_token != 0) req.cancel_token = opts.cancel_token;
  if (opts.traffic_class == TrafficClass::kBulk) {
    req.traffic_class = TrafficClass::kBulk;
  }
  if (ambient.abs_deadline_cycles != 0 &&
      req.abs_deadline_cycles == ambient.abs_deadline_cycles) {
    slot.counters.inc(obs::Counter::kDeadlineInherited);
  }
  return req;
}

Status Runtime::call(SlotId slot_id, ProgramId caller, EntryPointId id,
                     RegSet& regs) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];

  // The service screen, then the ambient request screen — call semantics,
  // not instrumentation, so they run at every sample period. The warm
  // no-context path pays two always-false compares against slot-local
  // state; an expired or cancelled root request refuses every nested call
  // in its tree right here, before a worker is touched.
  Status rc = Status::kOk;
  const Entry* e = screen_entry(id, Status::kNoSuchEntryPoint, rc);
  if (e == nullptr ||
      (rc = screen_request(slot, slot.cur_req, id)) != Status::kOk) {
    set_rc(regs, rc);
    return rc;
  }
  // A frame entry runs the RegSet as its frame, as call_frame would: it
  // books calls_frame, and no histogram and no span.
  if (e->fn != nullptr) [[unlikely]] {
    return dispatch(slot, caller, Lane{id}, regs, obs::Counter::kCallsSync,
                    Status::kNoSuchEntryPoint);
  }

  // Fast path: one plain store (calls_sync; hold-CD services pay a second
  // for hold_cd_hits), then the slot-local call body.
  slot.counters.inc(obs::Counter::kCallsSync);
  // Pure-delay seam (the failpoint burns its armed cpu_relax budget before
  // returning true): models a preempted or cache-cold caller.
  if (HPPC_FAULT_POINT("rt.call.delay")) {
    slot.counters.inc(obs::Counter::kFaultsInjected);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kFaultInject, id);
  }
  // Only the sampled call pays the tsc pair and the kRttSync record.
  const bool sampled = hist_sampled(slot);
  const std::uint64_t t0 = sampled ? host_cycles() : 0;
#if defined(HPPC_TRACE) && HPPC_TRACE
  // Request-scoped span: if the slot is executing under a trace (root
  // installed by trace_begin, or a remote/async context restored around
  // us), this call is a child span of it. Swapping cur_trace around the
  // handler makes nested RtCtx::call chains parent correctly.
  const obs::TraceCtx saved = slot.cur_trace;
  std::uint32_t span = 0;
  if (saved.traced()) {
    span = begin_span(slot, obs::SpanKind::kLocalCall, saved.trace_id,
                      saved.span_id);
    if (span != 0) slot.cur_trace.span_id = span;
  }
#endif
  rc = execute_on_slot(slot, id, *e, caller, regs);
#if defined(HPPC_TRACE) && HPPC_TRACE
  if (saved.traced()) {
    slot.cur_trace = saved;
    end_span(slot, saved.trace_id, span, saved.span_id, rc);
  }
#endif
  if (sampled) slot.hists->record(obs::Hist::kRttSync, host_cycles() - t0);
  return rc;
}

Status Runtime::call(SlotId slot_id, ProgramId caller, EntryPointId id,
                     RegSet& regs, const CallOptions& opts) {
  // A same-slot call executes inline on the calling thread, so the retry
  // knob has nothing to act on — but the deadline/cancel/class knobs do:
  // folded into the ambient request, they scope it around the handler;
  // nested calls the handler makes inherit the result, and the plain
  // call's screen enforces both the budget and the cancel flag.
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  const RequestCtx saved = slot.cur_req;
  install_req(slot.cur_req, fold_request(slot, opts));
  const Status rc = call(slot_id, caller, id, regs);
  slot.cur_req = saved;
  return rc;
}

// ---------------------------------------------------------------------------
// Cross-slot calls (xcall)
// ---------------------------------------------------------------------------

SlotId Runtime::register_thread() {
  const SlotId s = registry_.register_thread(pin_threads_);
  // First registration claims the gate (slots start idle, so a never-
  // registered slot is remotely direct-executable); re-registration finds
  // it already held by this thread and is a no-op.
  slots_[s]->gate.claim_at_register();
  return s;
}

std::size_t Runtime::drain_ring(Slot& slot, XcallRing& ring) {
  // One batch: every cell published before the first gap, one acquire per
  // cell to observe its payload, one book-keeping store per batch. The
  // ring runs the state protocol around each cell: abandoned cells never
  // reach this lambda, and a sync cell's reply is completed in its own
  // line right after it returns.
  const auto run = [this, &slot](XcallCell& cell) -> Status {
    // The request context the cell carried across the ring: the absolute
    // budget in its deadline lane, the cancel-token index and traffic
    // class in the ep word's high lanes. A cell that drained past its
    // deadline, or whose root was cancelled, is not executed late: a
    // fire-and-forget cell is dropped, a sync one is refused (a parked
    // caller is kicked by that completion exactly as a real result would
    // kick it).
    RequestCtx req;
    req.abs_deadline_cycles = cell.deadline;
    req.cancel_token = cell_token_idx(cell.ep);
    req.traffic_class = cell_is_bulk(cell.ep) ? TrafficClass::kBulk
                                              : TrafficClass::kInteractive;
    Status rc = screen_request(slot, req, cell_ep(cell.ep));
    if (rc == Status::kOk) {
      // Run under the cell's context — swapped in around the handler like
      // the trace context below, in every build — so NESTED calls the
      // handler makes inherit the root's budget and token. In trace builds
      // the cell's TraceCtx opens a kServerExec span parented to the
      // caller's post span.
      const RequestCtx saved_req = slot.cur_req;
#if defined(HPPC_TRACE) && HPPC_TRACE
      const obs::TraceCtx cctx = cell.tctx;
      const obs::TraceCtx saved = slot.cur_trace;
      std::uint32_t span = 0;
      if (cctx.traced()) {
        span = begin_span(slot, obs::SpanKind::kServerExec, cctx.trace_id,
                          cctx.span_id);
        slot.cur_trace = cctx;
        if (span != 0) slot.cur_trace.span_id = span;
      }
#endif
      install_req(slot.cur_req, req);
      // The caller screened the entry before admitting the call, so one
      // that is gone *here* died while the call was in flight — the
      // §4.5.2 abort case, kCallAborted; a soft kill keeps its own code.
      rc = dispatch(slot, cell.caller, Lane{}, cell,
                    obs::Counter::kCallsRemote, Status::kCallAborted);
      slot.cur_req = saved_req;
#if defined(HPPC_TRACE) && HPPC_TRACE
      if (cctx.traced()) {
        slot.cur_trace = saved;
        end_span(slot, cctx.trace_id, span, cctx.span_id, rc);
      }
#endif
    }
    if (cell.is_sync()) {
      // Fault seam before a sync completion: the failpoint burns its delay
      // budget, holding the caller's completion back.
      if (HPPC_FAULT_POINT("rt.xcall.complete.delay")) {
        slot.counters.inc(obs::Counter::kFaultsInjected);
        HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(),
                         slot.self_id, obs::TraceEvent::kFaultInject, cell.ep);
      }
      // The reply rides the cell line back to the caller.
      slot.counters.inc(obs::Counter::kSharedLinesTouched);
    }
    return rc;
  };
  // The completion's load found the parked bit: we just futex-woke a
  // waiter that gave up its timeslice to us.
  const auto kicked = [&slot]([[maybe_unused]] EntryPointId ep,
                              [[maybe_unused]] const obs::TraceCtx& tctx) {
    slot.counters.inc(obs::Counter::kWaiterKicks);
#if defined(HPPC_TRACE) && HPPC_TRACE
    // The kick instant carries the cell's request ids so the exported
    // trace shows WHICH call's completion woke the parked waiter.
    slot.trace_ring.record_span(
        obs::host_trace_now(), static_cast<std::uint16_t>(slot.self_id),
        obs::TraceEvent::kWaiterKick, cell_ep(ep), tctx.trace_id,
        tctx.span_id, 0);
#endif
  };
  const std::size_t n = ring.drain(run, kicked);
  if (n > 0) {
    // Drain accounting: xcall_cells_drained is the telemetry layer's
    // drain-rate source; the batch-size histogram shows how well batched
    // publishes are amortizing cross-slot transfers.
    slot.counters.inc(obs::Counter::kXcallBatches);
    slot.counters.inc(obs::Counter::kXcallCellsDrained, n);
    slot.hists->record(obs::Hist::kDrainBatch, n);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                     obs::TraceEvent::kXcallBatch, n);
  }
  return n;
}

std::size_t Runtime::drain_rings(Slot& slot) {
  // An owner's rings are node-local cells only it drains, so visiting
  // their head cells is local spinning; a ring whose head is published is
  // drained in the pass its head cell's class picks. Interactive first:
  // bulk work waits at most one pass (one lap per interactive ring). Only
  // the rings of slots that have posted are visited (ring_span_).
  const std::uint32_t nslots = ring_span_.load(std::memory_order_acquire);
  std::size_t done = 0;
  bool bulk_waiting = false;
  for (std::uint32_t src = 0; src < nslots; ++src) {
    const XcallCell* head = slot.rings[src].ready_head();
    if (head == nullptr) continue;
    if (cell_is_bulk(head->ep)) {
      bulk_waiting = true;
    } else {
      done += drain_ring(slot, slot.rings[src]);
    }
  }
  if (!bulk_waiting) return done;
  std::size_t bulk = 0;
  for (std::uint32_t src = 0; src < nslots; ++src) {
    const XcallCell* head = slot.rings[src].ready_head();
    if (head != nullptr && cell_is_bulk(head->ep)) {
      bulk += drain_ring(slot, slot.rings[src]);
    }
  }
  if (done != 0 && bulk != 0) {
    // Bulk work sat queued while interactive rings were served.
    slot.counters.inc(obs::Counter::kBulkDrainsDeferred);
  }
  return done + bulk;
}

std::size_t Runtime::drain_queued(Slot& slot) {
  // An RMW, so a producer's store either lands before it (and its cell is
  // acquired here) or after it (and stays set for the next holder).
  slot.queued.exchange(0, std::memory_order_acquire);
  return drain_rings(slot);
}

void Runtime::release_gate(Slot& slot) {
  // Every direct call ends here, so an unsignalled slot costs one load.
  if (slot.queued.load(std::memory_order_relaxed) != 0) [[unlikely]] {
    drain_queued(slot);
  }
  slot.gate.release_steal();
}

void Runtime::signal_queued(Slot& me, Slot& tgt) {
  // The producer side of the idle handshake (see enter_idle): the cell is
  // published, then a fence, then the gate load. Either this load sees
  // the gate not owned and sets the queued word, or the owner's re-check
  // after its own fence sees the cell — a post racing enter_idle is never
  // stranded. An owned target's scan finds the cell: nothing is stored.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (tgt.gate.state() == SlotGate::kOwner) {
    me.counters.inc(obs::Counter::kReadyMaskSkips);
    return;
  }
  tgt.queued.store(1, std::memory_order_release);
}

void Runtime::widen_ring_span(SlotId slot) {
  std::uint32_t span = ring_span_.load(std::memory_order_relaxed);
  while (span <= slot &&
         !ring_span_.compare_exchange_weak(span, slot + 1,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }
}

bool Runtime::help_drain(Slot& target) {
  if (!target.gate.try_steal()) return false;
  // The gate was idle, so nobody polls this slot: release_gate drains it
  // if anything is queued, a waiter's own post included.
  release_gate(target);
  return true;
}

CancelToken Runtime::cancel_token_create() { return cancel_pool_.create(); }

bool Runtime::cancel_requested(CancelToken token) const {
  return cancel_pool_.requested(token);
}

void Runtime::cancel(CancelToken token) {
  if (token == 0) return;
  shared_.inc(obs::Counter::kCancelRequests);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  // Raise the flag first: every seam (admission, drain, give-up loops,
  // cooperative handler polls) observes it from here on.
  cancel_pool_.raise(token);
  if (HPPC_FAULT_POINT("rt.cancel.sweep")) {
    // Delay seam between flag-raise and sweep: widens the window where a
    // cancelled cell is still in a ring, so the soak exercises the
    // drain-side kCallAborted path rather than only the sweep.
    shared_.inc(obs::Counter::kFaultsInjected);
  }
  // Sweep: drain every slot's rings so matching in-flight cells complete
  // (with kCallAborted, via the drain-side token check) instead of waiting
  // for the server's next natural pass — this is what turns a cancel of a
  // PARKED caller into a prompt kick. The existing abandon/complete CAS
  // protocol does the lifetime work; the sweep only forces the drain.
  for (auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    if (!slot.gate.try_steal()) continue;  // owner will drain on its own
    drain_queued(slot);
    slot.gate.release_steal();
  }
}

bool Runtime::cancellation_requested(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  const RequestCtx& req = slots_[slot]->cur_req;
  return cancel_requested(req.cancel_token) || req.expired(host_cycles());
}

void Runtime::set_request_ctx(SlotId slot, const RequestCtx& ctx) {
  HPPC_ASSERT(slot < slots_.size());
  slots_[slot]->cur_req = ctx;
}

RequestCtx Runtime::request_ctx(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->cur_req;
}

void Runtime::clear_request_ctx(SlotId slot) {
  HPPC_ASSERT(slot < slots_.size());
  slots_[slot]->cur_req = RequestCtx{};
}

Status Runtime::call_frame(SlotId slot_id, ProgramId caller, CallFrame& f) {
  HPPC_ASSERT(slot_id < slots_.size());
  return dispatch(*slots_[slot_id], caller, Lane{}, f,
                  obs::Counter::kCallsSync, Status::kNoSuchEntryPoint);
}

// ---------------------------------------------------------------------------
// The cross-slot engine
// ---------------------------------------------------------------------------
//
// Every call_remote* wrapper below is one call into submit(): screen →
// admit → direct | post → wait → complete over a span of requests. Each
// request is a Figure-4 frame (Lane adapts a RegSet), so RegSet and
// CallFrame calls share every counter, histogram, span, failpoint and the
// cell format: the entry rides the ep word's low lane, the op word's low
// half rides `opflags` and the payload the cell's RegSet.

// Inlined into each wrapper on purpose: a direct call is a few dozen
// nanoseconds, and an out-of-line engine call with its stack-passed
// arguments measurably added to it (the frame lane's direct call most).
template <typename Req>
[[gnu::always_inline]] inline Status Runtime::submit(
    const Lane& lane, SlotId caller_slot, SlotId target, ProgramId caller,
    std::span<Req> reqs, const CallOptions& opts, bool async) {
  HPPC_ASSERT(caller_slot < slots_.size());
  HPPC_ASSERT(target < slots_.size());
  Status overall = Status::kOk;
  if (!async && target == caller_slot) {
    // A sync call to the caller's own slot is a local call.
    for (Req& r : reqs) {
      Status s;
      if constexpr (std::is_same_v<Req, RegSet>) {
        s = call(caller_slot, caller, lane.id, r);
      } else {
        s = call_frame(caller_slot, caller, r);
      }
      if (overall == Status::kOk) overall = s;
    }
    return overall;
  }
  if (reqs.empty()) return Status::kOk;
  Slot& me = *slots_[caller_slot];
  Slot& tgt = *slots_[target];
  // Screen: an unbound or killed entry fails before touching the target.
  for (Req& r : reqs) {
    Status s = Status::kOk;
    if (!screen_entry(lane.entry(r), Status::kNoSuchEntryPoint, s)) {
      return Lane::refuse(reqs, s);
    }
    if constexpr (std::is_same_v<Req, RegSet>) break;  // one entry for all
  }

  // Admit: fold the per-call knobs into the ambient request the caller is
  // already executing under, so a context installed at the root rides
  // every hop. A spent budget or a cancelled root never touches the
  // target; neither does a call over its class's shed watermark — a lower
  // bulk watermark makes bulk traffic absorb the shedding first.
  const RequestCtx req = fold_request(me, opts);
  if (const Status s = screen_request(me, req, target, reqs.size());
      s != Status::kOk) {
    return Lane::refuse(reqs, s);
  }
  const std::uint32_t watermark = shed_watermark(req.traffic_class);
  if (watermark != 0 && xcall_depth(target) >= watermark) {
    me.counters.inc(obs::Counter::kCallsShed, reqs.size());
    if (req.bulk()) me.counters.inc(obs::Counter::kCallsShedBulk, reqs.size());
    HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), caller_slot,
                     obs::TraceEvent::kCallShed, target);
    return Lane::refuse(reqs, Status::kOverloaded);
  }
  if (req.bulk()) me.counters.inc(obs::Counter::kCallsBulk, reqs.size());

  // One histogram sampling decision per sync call or batch chunk; this one
  // covers the first chunk, whichever stage carries it.
  const bool sampled = !async && hist_sampled(me);
  const std::uint64_t t0 = sampled ? host_cycles() : 0;
  if (async) {
    return submit_ring(lane, caller_slot, target, caller, reqs, opts, req,
                       /*async=*/true, /*sampled=*/false, /*t0=*/0);
  }
  if (!tgt.gate.try_steal()) {
    return submit_ring_sync(lane, caller_slot, target, caller, reqs, opts,
                            req, sampled, t0);
  }

  // Direct: the target is parked — we hold its gate, so the whole
  // submission runs right here, against the target's pools (LRPC-style
  // migration). No context switch, no allocation; two shared RMWs (steal +
  // release). Direct execution crosses slots without crossing the ring, so
  // the stolen slot is put under the caller's request and trace contexts
  // by hand, exactly as the drain installs what a ring cell carries:
  // nested calls the handlers make inherit the budget, the token and the
  // span.
  const bool batched = reqs.size() > 1;
  me.counters.inc(obs::Counter::kSharedLinesTouched, 2);
  tgt.counters.inc(obs::Counter::kXcallDirect, reqs.size());
#if defined(HPPC_TRACE) && HPPC_TRACE
  const obs::TraceCtx parent = me.cur_trace;
  const obs::TraceCtx saved_trace = tgt.cur_trace;
  std::uint32_t span = 0;
  if (parent.traced()) {
    span = begin_span(
        me, batched ? obs::SpanKind::kBatch : obs::SpanKind::kRemoteDirect,
        parent.trace_id, parent.span_id);
    tgt.cur_trace = parent;
    if (span != 0) tgt.cur_trace.span_id = span;
    ++tgt.cur_trace.hop;
  }
#endif
  const RequestCtx saved_req = tgt.cur_req;
  install_req(tgt.cur_req, req);
  for (Req& r : reqs) {
    const Status s = dispatch(tgt, caller, lane, r, obs::Counter::kCallsRemote,
                              Status::kCallAborted);
    if (overall == Status::kOk) overall = s;
  }
  tgt.cur_req = saved_req;
#if defined(HPPC_TRACE) && HPPC_TRACE
  if (parent.traced()) {
    tgt.cur_trace = saved_trace;
    end_span(me, parent.trace_id, span, parent.span_id, overall);
  }
#endif
  // Help while we hold the slot: retire anything queued behind us before
  // the gate goes back.
  release_gate(tgt);
  // Complete: the sampled RTT, in the submission's histogram class.
  if (sampled) {
    const std::uint64_t rtt = host_cycles() - t0;
    me.hists->record(batched ? obs::Hist::kRttBatched : obs::Hist::kRttRemote,
                     rtt);
    if (req.bulk()) me.hists->record(obs::Hist::kRttBulk, rtt);
  }
  return overall;
}

// A sync submission's ring stages run out of line, so their state — the
// wait ladder among it — never crowds the direct stage's frame and
// registers; an async post is light enough to stay inline.
template <typename Req>
[[gnu::noinline]] Status Runtime::submit_ring_sync(
    const Lane& lane, SlotId caller_slot, SlotId target, ProgramId caller,
    std::span<Req> reqs, const CallOptions& opts, RequestCtx req,
    bool sampled, std::uint64_t t0) {
  return submit_ring(lane, caller_slot, target, caller, reqs, opts, req,
                     /*async=*/false, sampled, t0);
}

template <typename Req>
[[gnu::always_inline]] inline Status Runtime::submit_ring(
    const Lane& lane, SlotId caller_slot, SlotId target, ProgramId caller,
    std::span<Req> reqs, const CallOptions& opts, RequestCtx req, bool async,
    bool sampled, std::uint64_t t0) {
  Slot& me = *slots_[caller_slot];
  Slot& tgt = *slots_[target];
  const std::size_t n = reqs.size();
  const bool batched = n > 1;
  // The deadline cells carry, and the one the waiter abandons at; the
  // token and class ride every cell's ep lanes.
  const std::uint64_t in_flight = req.abs_deadline_cycles;
  const EntryPointId lanes = cell_pack_ep(0, req.cancel_token, req.bulk());
  Status overall = Status::kOk;
  const auto fold = [&overall](Status s) {
    if (overall == Status::kOk) overall = s;
  };
  const auto fault_hit = [&] {
    me.counters.inc(obs::Counter::kFaultsInjected);
    HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), caller_slot,
                     obs::TraceEvent::kFaultInject, target);
  };
  const auto help = [this, &tgt] { help_drain(tgt); };

#if defined(HPPC_TRACE) && HPPC_TRACE
  // The context every cell carries: a sync submission's span (kBatch for
  // a batch, kRemoteCall for a single call), or for an async post the
  // caller's own context, without a span.
  const obs::TraceCtx parent = me.cur_trace;
  obs::TraceCtx post_ctx = parent;
  std::uint32_t span = 0;
  if (parent.traced()) {
    if (!async) {
      span = begin_span(
          me, batched ? obs::SpanKind::kBatch : obs::SpanKind::kRemoteCall,
          parent.trace_id, parent.span_id);
      if (span != 0) post_ctx.span_id = span;
    }
    ++post_ctx.hop;
  }
#endif

  // Post seams, once per submission: "rt.xcall.post" delays the first post
  // (a caller preempted before publishing); "rt.xcall.ring_full" fails it,
  // so tests drive the full-ring branch without 64 parked cells.
  if (HPPC_FAULT_POINT("rt.xcall.post")) fault_hit();
  bool force_full = false;
  if (HPPC_FAULT_POINT("rt.xcall.ring_full")) {
    fault_hit();
    force_full = true;
  }

  // A slot's first post widens the span of rings every owner scans; it
  // precedes the post, so a scan that can see the cell covers its ring.
  if (caller_slot >= ring_span_.load(std::memory_order_relaxed))
      [[unlikely]] {
    widen_ring_span(caller_slot);
  }
  XcallRing& ring = tgt.rings[caller_slot];
  bool booked_full = false;
  bool decided = true;  // the first chunk's sampling decision came with us
  std::size_t i = 0;
  while (i < n) {
    if (!decided) {
      sampled = !async && hist_sampled(me);
      t0 = sampled ? host_cycles() : 0;
      decided = true;
    }
    // Post: claim up to a ring's worth of cells, each carrying its frame.
    // "rt.xcall.batch.post" delays every chunk post of a batch (a producer
    // preempted mid-batch).
    const std::size_t want = std::min(n - i, XcallRing::kCapacity);
    if (batched && HPPC_FAULT_POINT("rt.xcall.batch.post")) fault_hit();
    std::size_t posted = 0;
    std::uint64_t first = 0;  // a sync chunk's first ring position
    if (!force_full) {
      posted = ring.try_post(
          want,
          [&](XcallCell& cell, std::size_t k) {
            const Req& r = reqs[i + k];
            cell.caller = caller;
            cell.deadline = in_flight;
            cell.ep = lanes | lane.entry(r);
            cell.opflags = Lane::opflags(r);
            cell.regs.w = r.w;
#if defined(HPPC_TRACE) && HPPC_TRACE
            cell.tctx = post_ctx;
#endif
          },
          async ? nullptr : &first);
    }
    force_full = false;

    if (posted == 0) {
      // Full ring: the submission's first books xcall_ring_full, each later
      // attempt books a retry. Async fails fast whatever its policy — a
      // caller that does not wait for a reply cannot wait for room either.
      // A sync submission follows its retry policy — kBlock helps/yields
      // until it is posted, kFailFast gives up at once. A call that cannot
      // even be queued before its deadline or cancel was still too late.
      if (!booked_full) {
        booked_full = true;
        me.counters.inc(obs::Counter::kXcallRingFull);
      } else {
        me.counters.inc(obs::Counter::kRetries);
      }
      const Status give_up =
          async || opts.retry == RetryPolicy::kFailFast
              ? Status::kOverloaded
              : screen_request(me, req, target, n - i);
      if (give_up != Status::kOk) {
        fold(Lane::refuse(reqs.subspan(i), give_up));
        break;
      }
      if (!help_drain(tgt)) std::this_thread::yield();
      continue;
    }

    // A post on the slot's own ring touches no shared line, and its owner
    // signals nothing: its scan finds the cell. A thief posting there (a
    // handler run under a steal) sets the queued word, so its own
    // release_gate() — or a later holder's — drains the cell.
    if (target != caller_slot) {
      signal_queued(me, tgt);
      me.counters.inc(obs::Counter::kSharedLinesTouched, 2);
    } else if (me.gate.state() != SlotGate::kOwner) {
      me.queued.store(1, std::memory_order_relaxed);
    }
    me.counters.inc(obs::Counter::kXcallPosts, posted);
    if (batched) {
      me.counters.inc(obs::Counter::kXcallBatchPosts);
      me.counters.inc(obs::Counter::kXcallCellsPerBatch, posted);
      HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), caller_slot,
                       obs::TraceEvent::kXcallBatchPost,
                       static_cast<std::uint32_t>(posted));
    } else {
      HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), caller_slot,
                       obs::TraceEvent::kXcallPost, target);
    }
    if (async) {
      i += posted;
      continue;
    }

    // Wait, then complete: copy each reply out of its cell. The first waits dominate the wall time; later ones are
    // usually done by the time we look. A waiter without a deadline walks
    // the spin→yield→park ladder; one with a deadline abandons its cell
    // when it expires. The park failpoints: "rt.xcall.park.now" collapses
    // the yield phase so tests drive the park/kick protocol
    // deterministically; "rt.xcall.park" is a delay seam inside the park
    // decision, widening the park-vs-complete race.
    const std::uint64_t post_t = sampled ? host_cycles() : 0;
    int yield_rounds = kWaitYieldRounds;
    if (in_flight == 0 && HPPC_FAULT_POINT("rt.xcall.park.now")) {
      me.counters.inc(obs::Counter::kFaultsInjected);
      yield_rounds = 0;
    }
    for (std::size_t k = 0; k < posted; ++k) {
      XcallCell& cell = ring.cell(first + k);
      Req& r = reqs[i + k];
      std::uint64_t park_t = 0;  // stamped at park, read after the kick
      const std::uint32_t st =
          wait_complete(cell, in_flight, yield_rounds, help, [&] {
            me.counters.inc(obs::Counter::kWaiterParks);
            park_t = host_cycles();
            HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(),
                             caller_slot, obs::TraceEvent::kWaiterPark,
                             target);
            if (HPPC_FAULT_POINT("rt.xcall.park")) fault_hit();
          });
      // A parked waiter always books its wakeup: parks are rare, and the
      // stamp is the only view of the park->kick latency.
      if (park_t != 0) {
        me.hists->record(obs::Hist::kWakeup, host_cycles() - park_t);
      }
      if (st == kCellAbandoned) {
        // The cell is the server's now: its drain skips and retires it.
        book_refusal(me, Status::kDeadlineExceeded, target, 1);
        Lane::refuse(reqs.subspan(i + k, 1), Status::kDeadlineExceeded);
        fold(Status::kDeadlineExceeded);
        continue;
      }
      // The server has already retired the cell; we are the ring's only
      // producer, so nobody reuses it before the reply is copied out. The
      // reply takes the server's opcode|flags with the status as rc, so a
      // ring round trip returns the op word the direct path would.
      r.w = cell.regs.w;
      Lane::set_opflags(r, ppc::with_rc(cell.opflags, cell_status(st)));
      fold(cell_status(st));
    }
    i += posted;
    // Complete: a one-request submission books kRttRemote (kRttDeadlined
    // for a deadline wait) plus kRingWait; a batch books kRttBatched once
    // per chunk.
    if (sampled) {
      const std::uint64_t done_t = host_cycles();
      const std::uint64_t rtt = done_t - t0;
      if (!batched) me.hists->record(obs::Hist::kRingWait, done_t - post_t);
      me.hists->record(batched          ? obs::Hist::kRttBatched
                       : in_flight != 0 ? obs::Hist::kRttDeadlined
                                        : obs::Hist::kRttRemote,
                       rtt);
      if (req.bulk()) me.hists->record(obs::Hist::kRttBulk, rtt);
    }
    decided = false;
  }
#if defined(HPPC_TRACE) && HPPC_TRACE
  if (span != 0) end_span(me, parent.trace_id, span, parent.span_id, overall);
#endif
  return overall;
}

Status Runtime::call_remote_frame(SlotId caller_slot, SlotId target,
                                  ProgramId caller, CallFrame& f) {
  return submit(Lane{}, caller_slot, target, caller,
                std::span<CallFrame>(&f, 1), kNoOptions);
}

Status Runtime::call_remote_frame_batch(SlotId caller_slot, SlotId target,
                                        ProgramId caller,
                                        std::span<CallFrame> batch) {
  return submit(Lane{}, caller_slot, target, caller, batch, kNoOptions);
}

Status Runtime::call_remote(SlotId caller_slot, SlotId target,
                            ProgramId caller, EntryPointId id, RegSet& regs,
                            const CallOptions& opts) {
  return submit(Lane{id}, caller_slot, target, caller,
                std::span<RegSet>(&regs, 1), opts);
}

Status Runtime::call_remote_async(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  RegSet regs, const CallOptions& opts) {
  // Fire-and-forget is still part of the root request: the cell carries
  // the clamped budget, the token and the class, and with no waiter to
  // rescue it, expiry is enforced by the drain — a cell reached late is
  // dropped (deadline_exceeded on the target) rather than executed late.
  // A same-slot post rides the slot's own ring the same way.
  return submit(Lane{id}, caller_slot, target, caller,
                std::span<RegSet>(&regs, 1), opts, /*async=*/true);
}

Status Runtime::call_async(SlotId slot_id, ProgramId caller, EntryPointId id,
                           RegSet regs) {
  const Status rc =
      call_remote_async(slot_id, slot_id, caller, id, regs, kNoOptions);
  if (rc == Status::kOk) {
    Slot& slot = *slots_[slot_id];
    slot.counters.inc(obs::Counter::kCallsAsync);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kAsyncEnqueue, id);
  }
  return rc;
}

Status Runtime::call_remote_batch(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  std::span<RegSet> batch,
                                  const CallOptions& opts) {
  return submit(Lane{id}, caller_slot, target, caller, batch, opts);
}

void Runtime::enter_idle(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  // The owner side of the idle handshake (see signal_queued): publish
  // idle, fence, then re-check every head cell. A producer that loaded
  // the gate as still owned skipped its signal, so its cell is seen here.
  // The slot may be stolen from the publish on: book on shared counters.
  slot.gate.enter_idle();
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (HPPC_FAULT_POINT("rt.xcall.idle.recheck")) {
    // Delay seam inside the handshake window: tests post into it.
    shared_.inc(obs::Counter::kFaultsInjected);
  }
  const std::uint32_t nslots = ring_span_.load(std::memory_order_acquire);
  for (std::uint32_t src = 0; src < nslots; ++src) {
    if (slot.rings[src].ready_head() != nullptr) {
      slot.queued.store(1, std::memory_order_release);
      return;
    }
  }
}

void Runtime::exit_idle(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  slot.gate.exit_idle();
  // Owned again: the owner's scan finds whatever the word flagged.
  slot.queued.store(0, std::memory_order_relaxed);
}

std::size_t Runtime::serve(SlotId slot_id, const std::atomic<bool>& stop) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  std::size_t total = 0;
  while (!stop.load(std::memory_order_acquire)) {
    // Park right after the poll: the owner goes idle (and direct steals
    // resume), and enter_idle's re-check flags a cell that is already
    // waiting — a handler's re-post to its own ring included.
    total += poll(slot_id);
    enter_idle(slot_id);
    // Parked: remote callers direct-execute (or help-drain) through the
    // gate; we only need to wake for queued work, a hard kill's reclaim
    // bump, or stop — three word loads, two of them on one line.
    while (!stop.load(std::memory_order_acquire) &&
           slot.queued.load(std::memory_order_acquire) == 0 &&
           slot.reclaim_epoch.load(std::memory_order_relaxed) ==
               slot.reclaim_seen) {
      std::this_thread::yield();
    }
    exit_idle(slot_id);
  }
  total += poll(slot_id);
  return total;
}

std::size_t Runtime::poll(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  // Reclaim first (a kill's reclamation must not trail the calls it
  // affects longer than necessary): one load when nothing was killed.
  std::size_t done = 0;
  if (slot.reclaim_epoch.load(std::memory_order_relaxed) !=
      slot.reclaim_seen) [[unlikely]] {
    done = reclaim_dead_services(slot);
  }
  return done + drain_rings(slot);
}

const obs::SlotCounters& Runtime::counters(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->counters;
}

obs::SlotCounters& Runtime::slot_counters(SlotId slot) {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->counters;
}

namespace {

/// Fill in the per-call pool counters the fast path deliberately does not
/// increment. Every executed call — same-slot sync or remotely executed —
/// acquires exactly one worker (pool hit or creation) and one CD (held,
/// recycled, or created), so per slot:
///   worker_pool_hits = calls_sync + calls_remote - workers_created
///   cd_recycles      = calls_sync + calls_remote - hold_cd_hits - cds_created
/// Both saturate at zero: a hold-CD worker's creation-time CD acquisition
/// happens outside any call, so the second identity can undershoot by at
/// most the number of such workers.
void derive_pool_counters(obs::CounterSnapshot& s) {
  auto get = [&s](obs::Counter c) { return s.get(obs::Counter{c}); };
  auto& hits = s.v[static_cast<std::size_t>(obs::Counter::kWorkerPoolHits)];
  const std::uint64_t calls = get(obs::Counter::kCallsSync) +
                              get(obs::Counter::kCallsRemote);
  const std::uint64_t created = get(obs::Counter::kWorkersCreated);
  hits = calls > created ? calls - created : 0;
  auto& rec = s.v[static_cast<std::size_t>(obs::Counter::kCdRecycles)];
  const std::uint64_t spent = get(obs::Counter::kHoldCdHits) +
                              get(obs::Counter::kCdsCreated);
  rec = calls > spent ? calls - spent : 0;
}

}  // namespace

obs::CounterSnapshot Runtime::slot_snapshot(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  obs::CounterSnapshot s = slots_[slot]->counters.snapshot();
  derive_pool_counters(s);
  return s;
}

obs::CounterSnapshot Runtime::snapshot() const {
  obs::CounterSnapshot s = shared_.snapshot();
  for (const auto& slot : slots_) {
    obs::CounterSnapshot per = slot->counters.snapshot();
    derive_pool_counters(per);
    s.merge(per);
  }
  // Arena gauges: point-in-time values overlaid (not summed) — the arena is
  // runtime-wide, not per-slot, so merging would double-count.
  const mem::ArenaStats a = arena_.stats();
  s.v[static_cast<std::size_t>(obs::Counter::kArenaBytesReserved)] =
      a.bytes_reserved;
  s.v[static_cast<std::size_t>(obs::Counter::kArenaHugepages)] = a.hugepages;
  s.v[static_cast<std::size_t>(obs::Counter::kArenaNodeMismatch)] =
      a.node_mismatches;
  return s;
}

#if defined(HPPC_TRACE) && HPPC_TRACE
obs::TraceRing& Runtime::trace_ring(SlotId slot) {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->trace_ring;
}
#else
const obs::TraceRing& Runtime::trace_ring(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  // Zero-initialized static storage: its pages stay untouched until read.
  static obs::TraceRing empty;
  return empty;
}
#endif

// ---------------------------------------------------------------------------
// Request tracing
// ---------------------------------------------------------------------------

std::uint32_t Runtime::begin_span(Slot& slot, obs::SpanKind kind,
                                  std::uint64_t trace_id,
                                  std::uint32_t parent) {
#if defined(HPPC_TRACE) && HPPC_TRACE
  // Degradation seam: a span that cannot be recorded is DROPPED (booked in
  // trace_drops, id 0 so downstream emission elides) — the call path never
  // blocks or fails on tracing's behalf.
  if (HPPC_FAULT_POINT("rt.trace.drop")) {
    slot.counters.inc(obs::Counter::kTraceDrops);
    slot.counters.inc(obs::Counter::kFaultsInjected);
    return 0;
  }
  // Slot-tagged span ids: two slots minting concurrently never collide,
  // and 0 stays reserved for "no span".
  std::uint32_t id = (slot.self_id << 24) | (slot.next_span++ & 0xFFFFFFu);
  if (id == 0) id = (slot.self_id << 24) | (slot.next_span++ & 0xFFFFFFu);
  slot.trace_ring.record_span(obs::host_trace_now(),
                              static_cast<std::uint16_t>(slot.self_id),
                              obs::TraceEvent::kSpanBegin,
                              static_cast<std::uint32_t>(kind), trace_id, id,
                              parent);
  return id;
#else
  (void)slot;
  (void)kind;
  (void)trace_id;
  (void)parent;
  return 0;
#endif
}

void Runtime::end_span(Slot& slot, std::uint64_t trace_id, std::uint32_t span,
                       std::uint32_t parent, Status rc) {
#if defined(HPPC_TRACE) && HPPC_TRACE
  if (span == 0) return;  // dropped at begin — nothing to close
  slot.trace_ring.record_span(obs::host_trace_now(),
                              static_cast<std::uint16_t>(slot.self_id),
                              obs::TraceEvent::kSpanEnd,
                              static_cast<std::uint32_t>(rc), trace_id, span,
                              parent);
#else
  (void)slot;
  (void)trace_id;
  (void)span;
  (void)parent;
  (void)rc;
#endif
}

obs::TraceCtx Runtime::trace_begin(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
#if defined(HPPC_TRACE) && HPPC_TRACE
  Slot& slot = *slots_[slot_id];
  obs::TraceCtx ctx;
  // Trace ids only need to be unique across concurrently-live traces; the
  // tsc sampled at root creation, salted with the slot id, is plenty (and
  // the |1 keeps 0 meaning "untraced" forever).
  ctx.trace_id = (host_cycles() << 8) | ((slot_id & 0x7Fu) << 1) | 1u;
  ctx.span_id = begin_span(slot, obs::SpanKind::kRoot, ctx.trace_id, 0);
  slot.cur_trace = ctx;
  return ctx;
#else
  (void)slot_id;
  return {};
#endif
}

void Runtime::trace_end(SlotId slot_id, Status rc) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
#if defined(HPPC_TRACE) && HPPC_TRACE
  if (slot.cur_trace.traced()) {
    end_span(slot, slot.cur_trace.trace_id, slot.cur_trace.span_id, 0, rc);
  }
#else
  (void)rc;
#endif
  slot.cur_trace = obs::TraceCtx{};
}

obs::TraceCtx Runtime::trace_ctx(SlotId slot_id) const {
  HPPC_ASSERT(slot_id < slots_.size());
  return slots_[slot_id]->cur_trace;
}

// ---------------------------------------------------------------------------
// Histograms & telemetry
// ---------------------------------------------------------------------------

const obs::SlotHistograms& Runtime::histograms(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  return *slots_[slot]->hists;
}

obs::HistSnapshot Runtime::hist_snapshot(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->hists->snapshot();
}

obs::HistSnapshot Runtime::hist_snapshot() const {
  obs::HistSnapshot s;
  for (const auto& slot : slots_) s.merge(slot->hists->snapshot());
  return s;
}

obs::Telemetry Runtime::telemetry() {
  // Export failpoint: the chaos soak arms this to verify a telemetry
  // consumer failing mid-scrape degrades to an empty snapshot — derivation
  // state is left untouched, the runtime never notices.
  if (HPPC_FAULT_POINT("obs.export")) {
    shared_.inc(obs::Counter::kFaultsInjected);
    return obs::Telemetry{};
  }
  std::vector<obs::SlotWindow> windows;
  {
    std::lock_guard<std::mutex> lock(telemetry_.mu);
    const std::uint32_t n = registry_.capacity();
    const std::uint64_t now_ns = obs::host_trace_now();
    const std::uint64_t now_cy = host_cycles();
    if (!telemetry_.primed) {
      telemetry_.prev_counters.resize(n);
      telemetry_.prev_hists.resize(n);
      telemetry_.occ_ewma.assign(n, 0.0);
    }
    const bool have_window = telemetry_.primed && now_ns > telemetry_.prev_ns;
    const double window_s =
        have_window ? static_cast<double>(now_ns - telemetry_.prev_ns) * 1e-9
                    : 0.0;
    // Calibrate the histogram tick from this window's own clock pair (the
    // hot paths record host_cycles() ticks; exports are in nanoseconds).
    const double cycles_per_ns =
        have_window ? static_cast<double>(now_cy - telemetry_.prev_cycles) /
                          static_cast<double>(now_ns - telemetry_.prev_ns)
                    : 0.0;
    windows.reserve(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      obs::SlotWindow w;
      w.slot = s;
      w.window_s = window_s;
      w.cycles_per_ns = cycles_per_ns;
      // Observer-side occupancy EWMA, advanced once per scrape.
      const auto depth = static_cast<double>(xcall_depth(s));
      double& e = telemetry_.occ_ewma[s];
      e = telemetry_.primed ? 0.25 * depth + 0.75 * e : depth;
      w.occupancy_ewma = e;
      const obs::CounterSnapshot cs = slots_[s]->counters.snapshot();
      const obs::HistSnapshot hs = slots_[s]->hists->snapshot();
      w.counters = cs.delta(telemetry_.prev_counters[s]);
      w.hists = hs.delta(telemetry_.prev_hists[s]);
      telemetry_.prev_counters[s] = cs;
      telemetry_.prev_hists[s] = hs;
      windows.push_back(w);
    }
    telemetry_.prev_ns = now_ns;
    telemetry_.prev_cycles = now_cy;
    telemetry_.primed = true;
  }
  shared_.inc(obs::Counter::kTelemetrySnaps);
  return obs::derive_telemetry(windows);
}

std::size_t Runtime::xcall_depth(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  std::size_t depth = 0;
  const std::uint32_t nslots = ring_span_.load(std::memory_order_acquire);
  for (std::uint32_t src = 0; src < nslots; ++src) {
    depth += slots_[slot]->rings[src].depth();
  }
  return depth;
}

std::size_t Runtime::pooled_workers(SlotId slot, EntryPointId id) const {
  HPPC_ASSERT(slot < slots_.size());
  HPPC_ASSERT(id < kMaxEntryPoints);
  std::size_t n = 0;
  for (RtWorker* w = slots_[slot]->worker_pool[id]; w != nullptr;
       w = w->next) {
    ++n;
  }
  return n;
}

}  // namespace hppc::rt
