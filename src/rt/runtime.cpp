#include "rt/runtime.h"

#include <algorithm>
#include <bit>
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
  const std::uint32_t cap = registry_.capacity();
  for (SlotId s = 0; s < cap; ++s) {
    Slot& slot = *slots_[s];
    slot.self_id = s;
    slot.node = node_of_slot(s);
    slot.rings = arena_.create_array<XcallRing>(slot.node, cap);
    slot.hists = arena_.create<obs::SlotHistograms>(slot.node);
  }
  // The cancel-flag pool (value-initialized: every flag starts clear).
  // Heap, not arena: it is runtime-wide, not per-slot, and cold until a
  // cancel actually lands. adopt_cancel_pool() may later re-point the
  // working pointers at segment-resident storage.
  owned_cancel_flags_ =
      std::make_unique<std::atomic<std::uint32_t>[]>(kMaxCancelTokens);
  cancel_flags_ = owned_cancel_flags_.get();
}

void Runtime::adopt_cancel_pool(std::atomic<std::uint32_t>* flags,
                                std::atomic<std::uint32_t>* next_token) {
  cancel_flags_ = flags;
  next_cancel_token_ = next_token;
}

EntryPointId Runtime::bind(RtServiceConfig cfg, ProgramId program,
                           RtHandler initial_handler) {
  // Off-slot slow path: the bind lock and the service-table publication are
  // exactly the shared traffic the warm path avoids — book them.
  shared_.inc(obs::Counter::kBinds);
  shared_.inc(obs::Counter::kLocksTaken);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  std::lock_guard<std::mutex> lock(bind_mutex_);
  while (next_ep_ < kMaxEntryPoints &&
         services_[next_ep_].load(std::memory_order_relaxed) != nullptr) {
    ++next_ep_;
  }
  HPPC_ASSERT_MSG(next_ep_ < kMaxEntryPoints, "out of entry points");
  auto svc = std::make_unique<Service>();
  svc->cfg = std::move(cfg);
  svc->program = program;
  svc->initial_handler = std::move(initial_handler);
  svc->id = next_ep_;
  Service* raw = svc.get();
  owned_services_.push_back(std::move(svc));
  services_[next_ep_].store(raw, std::memory_order_release);
  return next_ep_++;
}

Status Runtime::kill(EntryPointId id, bool hard) {
  Service* svc = lookup(id);
  if (svc == nullptr || svc->state.load() == SvcState::kDead) {
    return Status::kNoSuchEntryPoint;
  }
  shared_.inc(hard ? obs::Counter::kHardKills : obs::Counter::kSoftKills);
  shared_.inc(obs::Counter::kSharedLinesTouched);  // the state store below
  svc->state.store(hard ? SvcState::kDead : SvcState::kDraining,
                   std::memory_order_release);
  if (hard) {
    services_[id].store(nullptr, std::memory_order_release);
    // Per-slot resources may only be touched by their owner: post the
    // reclamation to every slot (the mailbox stands in for the IPI of
    // §4.5.2).
    for (SlotId s = 0; s < slots_.size(); ++s) {
      post(s, [this, s, id] { reclaim_service_on_slot(*slots_[s], id); });
    }
  }
  return Status::kOk;
}

Status Runtime::soft_kill(EntryPointId id) { return kill(id, /*hard=*/false); }
Status Runtime::hard_kill(EntryPointId id) { return kill(id, /*hard=*/true); }

void Runtime::reclaim_service_on_slot(Slot& slot, EntryPointId id) {
  RtWorker* w = slot.worker_pool[id];
  slot.worker_pool[id] = nullptr;
  while (w != nullptr) {
    RtWorker* next = w->next;
    slot.counters.inc(obs::Counter::kWorkersReclaimed);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                     obs::TraceEvent::kReclaim, id);
    if (w->held_cd != nullptr) {
      // Return the held CD (and its stack) to the slot's shared pool.
      w->held_cd->next = slot.cd_pool;
      slot.cd_pool = w->held_cd;
      w->held_cd = nullptr;
    }
    w = next;  // the owned_workers vector keeps the storage alive
  }
}

RtWorker* Runtime::acquire_worker(Slot& slot, Service& svc) {
  RtWorker* w = slot.worker_pool[svc.id];
  if (w != nullptr) {
    slot.worker_pool[svc.id] = w->next;
    w->next = nullptr;
    return w;
  }
  // Slow path: create a worker initialized to the service's initial
  // (possibly one-time-init, §4.5.3) routine.
  slot.counters.inc(obs::Counter::kWorkersCreated);
  slot.counters.inc(obs::Counter::kSlowPathEntries);
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                   obs::TraceEvent::kWorkerCreate, svc.id);
  auto owned = std::make_unique<RtWorker>(svc.initial_handler);
  w = owned.get();
  slot.owned_workers.push_back(std::move(owned));
  if (svc.cfg.hold_cd) {
    w->held_cd = acquire_cd(slot, *w);
  }
  return w;
}

RtCd* Runtime::acquire_cd(Slot& slot, RtWorker& w) {
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

void Runtime::release(Slot& slot, Service& svc, RtWorker* w, RtCd* cd) {
  w->active_cd = nullptr;
  if (w->held_cd != cd) {
    cd->next = slot.cd_pool;
    slot.cd_pool = cd;
  }
  if (svc.state.load(std::memory_order_acquire) == SvcState::kActive) {
    w->next = slot.worker_pool[svc.id];
    slot.worker_pool[svc.id] = w;
  } else if (w->held_cd != nullptr) {
    // Draining/dead: the worker is not re-pooled; free its held CD.
    w->held_cd->next = slot.cd_pool;
    slot.cd_pool = w->held_cd;
    w->held_cd = nullptr;
  }
}

Status Runtime::execute_on_slot(Slot& slot, SlotId slot_id, Service& svc,
                                ProgramId caller, RegSet& regs) {
  // The shared call body: everything below is slot-local under the current
  // ownership — no atomics, no locks. Pool-hit and CD-recycle tallies are
  // derived at snapshot time from the slow-path counters instead of being
  // incremented per call (see derive_pool_counters).
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                   obs::TraceEvent::kCallEnter, svc.id);
  // Fault seams for the resource-acquisition half of the call body:
  // simulate the worker pool (then the CD pool) being exhausted past even
  // Frank's reach — the §4.5.6 failure mode — without perturbing the real
  // pools.
  if (HPPC_FAULT_POINT("rt.worker.exhausted") ||
      HPPC_FAULT_POINT("rt.cd.exhausted")) {
    slot.counters.inc(obs::Counter::kFaultsInjected);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kFaultInject, svc.id);
    set_rc(regs, Status::kOutOfResources);
    return Status::kOutOfResources;
  }
  RtWorker* w = acquire_worker(slot, svc);
  RtCd* cd = acquire_cd(slot, *w);
  w->active_cd = cd;

  // Simulated handler abort (§4.5.2 in-flight failure): the worker and CD
  // were acquired, the handler never runs, resources are released below.
  bool aborted = false;
  if (HPPC_FAULT_POINT("rt.handler.abort")) {
    slot.counters.inc(obs::Counter::kFaultsInjected);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kFaultInject, svc.id);
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

  release(slot, svc, w, cd);
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                   obs::TraceEvent::kCallExit,
                   static_cast<std::uint32_t>(rc_of(regs)));
  return rc_of(regs);
}

Status Runtime::call(SlotId slot_id, ProgramId caller, EntryPointId id,
                     RegSet& regs) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];

  Service* svc = lookup(id);
  if (svc == nullptr) {
    set_rc(regs, Status::kNoSuchEntryPoint);
    return Status::kNoSuchEntryPoint;
  }
  const SvcState st = svc->state.load(std::memory_order_acquire);
  if (st != SvcState::kActive) {
    const Status s = st == SvcState::kDraining ? Status::kEntryPointDraining
                                               : Status::kNoSuchEntryPoint;
    set_rc(regs, s);
    return s;
  }

  // Ambient request screen — call semantics, not instrumentation, so it
  // runs at every sample period. The warm no-context path pays two
  // always-false compares against slot-local state; an expired or
  // cancelled root request refuses every nested call in its tree right
  // here, before a worker is touched.
  const RequestCtx& req = slot.cur_req;
  if (req.abs_deadline_cycles != 0 &&
      host_cycles() >= req.abs_deadline_cycles) {
    slot.counters.inc(obs::Counter::kDeadlineExceeded);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kDeadlineExceeded, id);
    set_rc(regs, Status::kDeadlineExceeded);
    return Status::kDeadlineExceeded;
  }
  if (req.cancel_token != 0 && cancel_requested(req.cancel_token)) {
    slot.counters.inc(obs::Counter::kCallsCancelled);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kCallCancelled, id);
    set_rc(regs, Status::kCallAborted);
    return Status::kCallAborted;
  }

  // Fast path: one plain store (calls_sync; hold-CD services pay a second
  // for hold_cd_hits), then the shared slot-local call body.
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
  const Status rc = execute_on_slot(slot, slot_id, *svc, caller, regs);
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
  // they scope the ambient request context around the handler. The
  // relative deadline folds into the inherited absolute budget (tighten,
  // never extend — with_budget), nested calls the handler makes inherit
  // the result, and the plain call's pre-execution screen enforces both
  // the budget and the cancel flag.
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  const RequestCtx saved = slot.cur_req;
  RequestCtx eff = saved;
  eff.abs_deadline_cycles = opts.with_budget(saved.abs_deadline_cycles);
  if (opts.cancel_token != 0) eff.cancel_token = opts.cancel_token;
  if (opts.traffic_class == TrafficClass::kBulk) {
    eff.traffic_class = TrafficClass::kBulk;
  }
  if (saved.abs_deadline_cycles != 0 &&
      eff.abs_deadline_cycles == saved.abs_deadline_cycles) {
    slot.counters.inc(obs::Counter::kDeadlineInherited);
  }
  slot.cur_req = eff;
  const Status rc = call(slot_id, caller, id, regs);
  slot.cur_req = saved;
  return rc;
}

Status Runtime::call_async(SlotId slot_id, ProgramId caller, EntryPointId id,
                           RegSet regs) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  Service* svc = lookup(id);
  if (svc == nullptr) return Status::kNoSuchEntryPoint;
  if (svc->state.load(std::memory_order_acquire) != SvcState::kActive) {
    return Status::kEntryPointDraining;
  }
  slot.counters.inc(obs::Counter::kCallsAsync);
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                   obs::TraceEvent::kAsyncEnqueue, id);
  DeferredCall d{caller, id, regs};
  // Sampled calls only: poll() turns the stamp into kRttAsync, 0 skips it.
  d.enqueue_tsc = hist_sampled(slot) ? host_cycles() : 0;
  d.tctx = slot.cur_trace;        // trace context rides the deferral
  d.rctx = slot.cur_req;          // ...and so does the request context:
  // poll() re-installs it around the execution, where call()'s screen
  // drops the deferred call if the root expired or was cancelled meanwhile.
  slot.deferred.push_back(d);
  return Status::kOk;
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

Status Runtime::execute_remote(Slot& slot, ProgramId caller, EntryPointId id,
                               RegSet& regs) {
  // Re-resolve: the service may have been killed between post and drain.
  // The caller pre-screened the entry point before admitting the call, so
  // a service that is gone (or hard-killed) *here* died while the call was
  // in flight — that is the §4.5.2 abort case, reported as kCallAborted so
  // a hard kill racing call_remote yields exactly {kOk, kCallAborted}.
  // Soft kill keeps its distinct drain code.
  Service* svc = lookup(id);
  if (svc == nullptr) {
    set_rc(regs, Status::kCallAborted);
    return Status::kCallAborted;
  }
  const SvcState st = svc->state.load(std::memory_order_acquire);
  if (st != SvcState::kActive) {
    const Status s = st == SvcState::kDraining ? Status::kEntryPointDraining
                                               : Status::kCallAborted;
    set_rc(regs, s);
    return s;
  }
  slot.counters.inc(obs::Counter::kCallsRemote);
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                   obs::TraceEvent::kRemoteCall, id);
  return execute_on_slot(slot, slot.self_id, *svc, caller, regs);
}

std::size_t Runtime::drain_ring(Slot& slot, XcallRing& ring) {
  // Execute one cell's request under the request context it carried across
  // the ring (trace builds): a kServerExec span parented to the caller's
  // post span, with cur_trace swapped so nested calls inside the handler
  // parent to it in turn.
  const auto run_cell = [this, &slot](const XcallCell& cell,
                                      RegSet& out) -> Status {
    // Install the request context the cell carried across the ring: the
    // absolute budget rides the cell's deadline lane, the cancel-token
    // index and traffic class ride the ep word's high lanes. Swapped in
    // around the handler exactly like the trace context below — but
    // unconditionally, in every build — so NESTED calls the handler makes
    // inherit the root's budget and token. This is the hop the tentpole
    // exists for: before it, an expired root died at the first xcall seam
    // while downstream work kept burning cycles.
    const RequestCtx saved_req = slot.cur_req;
    RequestCtx req;
    req.abs_deadline_cycles = cell.deadline;
    req.cancel_token = cell_token_idx(cell.ep);
    req.traffic_class = cell_is_bulk(cell.ep) ? TrafficClass::kBulk
                                              : TrafficClass::kInteractive;
#if defined(HPPC_TRACE) && HPPC_TRACE
    const obs::TraceCtx cctx = cell.tctx;
    req.trace_id = cctx.trace_id;
    const obs::TraceCtx saved = slot.cur_trace;
    std::uint32_t span = 0;
    if (cctx.traced()) {
      span = begin_span(slot, obs::SpanKind::kServerExec, cctx.trace_id,
                        cctx.span_id);
      slot.cur_trace = cctx;
      if (span != 0) slot.cur_trace.span_id = span;
    }
#endif
    slot.cur_req = req;
    const Status rc =
        execute_remote(slot, cell.caller, cell_ep(cell.ep), out);
    slot.cur_req = saved_req;
#if defined(HPPC_TRACE) && HPPC_TRACE
    if (cctx.traced()) {
      slot.cur_trace = saved;
      end_span(slot, cctx.trace_id, span, cctx.span_id, rc);
    }
#endif
    return rc;
  };
  // One batch: every cell published before the first gap, one acquire per
  // cell to observe its payload, one book-keeping store per batch. The
  // ring runs the state protocol around each cell: abandoned cells never
  // reach this lambda, and a sync cell's reply is completed in its own
  // line right after it returns.
  const auto run = [this, &slot, &run_cell](XcallCell& cell) -> Status {
    // The handler runs on a server-local register file; the caller's line
    // is written once, reply then state word, after it returns.
    RegSet out = cell.regs;
    Status rc;
    if (cell_is_frame(cell)) {
      // Frame cells first: their `deadline` lane carries the packed op
      // word, so nothing below this branch may read it as a tick count.
      // Frames carry no request context in flight, so they always run.
      CallFrame f = cell_frame(cell);
      rc = execute_frame(slot, cell.caller, f);
      out.w = f.w;
    } else if (cell.deadline != 0 && host_cycles() >= cell.deadline) {
      // A cell that drained past its deadline is not executed late: a
      // fire-and-forget cell is dropped, a sync one fails instead of
      // burning a worker on a result nobody can use.
      rc = Status::kDeadlineExceeded;
      set_rc(out, rc);
      slot.counters.inc(obs::Counter::kDeadlineExceeded);
      HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                       obs::TraceEvent::kDeadlineExceeded, cell_ep(cell.ep));
    } else if (const std::uint32_t tok = cell_token_idx(cell.ep);
               tok != 0 && cancel_requested(tok)) {
      // A cancelled cell is refused the same way: the root asked for the
      // whole tree to stop. A parked caller is kicked by the completion
      // exchange exactly as a real result would kick it.
      rc = Status::kCallAborted;
      set_rc(out, rc);
      slot.counters.inc(obs::Counter::kCallsCancelled);
      HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                       obs::TraceEvent::kCallCancelled, cell_ep(cell.ep));
    } else {
      rc = run_cell(cell, out);
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
    cell.regs = out;
    return rc;
  };
  // The completing exchange found the parked bit: we just futex-woke a
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
    // drain-rate source; the batch-size histogram shows how well doorbell
    // coalescing is amortizing cross-slot transfers.
    slot.counters.inc(obs::Counter::kXcallBatches);
    slot.counters.inc(obs::Counter::kXcallCellsDrained, n);
    slot.hists->record(obs::Hist::kDrainBatch, n);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                     obs::TraceEvent::kXcallBatch, n);
  }
  return n;
}

std::size_t Runtime::drain_bit(Slot& slot, std::uint32_t b) {
  const std::uint32_t nslots = registry_.capacity();
  // Bit 63 aliases every producer at or beyond the mask width.
  const std::uint32_t last = (b == 63 && nslots > 64) ? nslots - 1 : b;
  std::size_t done = 0;
  for (std::uint32_t src = b; src <= last && src < nslots; ++src) {
    // A sticky bit's ring is usually empty: test the head cell inline.
    XcallRing& ring = slot.rings[src];
    if (ring.head_ready()) done += drain_ring(slot, ring);
  }
  return done;
}

std::size_t Runtime::drain_mask(Slot& slot, std::atomic<std::uint64_t>& mask,
                                std::array<std::uint8_t, 64>& idle) {
  // Sticky doorbells: the pass only loads the mask, so while producers
  // keep finding their bits set neither side writes this line. Cell
  // payloads are ordered by each cell's seq acquire, not by the mask, so
  // the load is relaxed. A flagged ring is visited through its head cell
  // only — never through the producers' enqueue cursor.
  std::uint64_t ready = mask.load(std::memory_order_relaxed);
  std::size_t done = 0;
  while (ready != 0) {
    const auto b = static_cast<std::uint32_t>(std::countr_zero(ready));
    ready &= ready - 1;
    const std::size_t n = drain_bit(slot, b);
    done += n;
    if (n != 0) {
      idle[b] = 0;
      continue;
    }
    if (++idle[b] < kDoorbellIdlePolls) continue;
    // Clear, as one side of a Dekker handshake with ring_doorbell (which
    // publishes its cell, fences, then loads the mask): the clear RMW,
    // a fence, then a re-check of the rings. Either the producer's load
    // sees the bit clear and sets it again, or this re-check sees its
    // cell — a post racing the clear is served here, not by a backstop.
    idle[b] = 0;
    mask.fetch_and(~(std::uint64_t{1} << b), std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (HPPC_FAULT_POINT("rt.xcall.doorbell.clear")) {
      // Delay seam inside the handshake window: tests post into it.
      slot.counters.inc(obs::Counter::kFaultsInjected);
    }
    done += drain_bit(slot, b);
  }
  return done;
}

std::size_t Runtime::drain_ready(Slot& slot) {
  // Interactive-first drain ordering: the interactive doorbell word is
  // served before the bulk word is even consulted, so a slot with both
  // classes queued retires the latency-sensitive work first. Starvation
  // is bounded by the ring capacities: one drain_ready pass serves at most
  // one batch per flagged interactive ring, then ALWAYS falls through to
  // the bulk word.
  // The idle check is inline: an idle mask costs the poll a load, not a
  // call.
  std::size_t done = slot.ready_mask.load(std::memory_order_relaxed) != 0
                         ? drain_mask(slot, slot.ready_mask, slot.idle_visits)
                         : 0;
  if (slot.bulk_ready_mask.load(std::memory_order_relaxed) != 0) {
    const std::size_t bulk =
        drain_mask(slot, slot.bulk_ready_mask, slot.bulk_idle_visits);
    if (done != 0 && bulk != 0) {
      // Bulk work sat queued while interactive doorbells were served.
      slot.counters.inc(obs::Counter::kBulkDrainsDeferred);
    }
    done += bulk;
  }
  return done;
}

std::size_t Runtime::settle_doorbells(Slot& slot) {
  // The same handshake as drain_mask's clear, for every bit at once. Every
  // direct call ends here, so an all-clear slot costs two loads.
  if ((slot.ready_mask.load(std::memory_order_relaxed) |
       slot.bulk_ready_mask.load(std::memory_order_relaxed)) == 0) {
    return 0;
  }
  std::size_t done = 0;
  for (auto* mask : {&slot.ready_mask, &slot.bulk_ready_mask}) {
    if (mask->load(std::memory_order_relaxed) == 0) continue;
    std::uint64_t bits = mask->exchange(0, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    auto& idle =
        mask == &slot.ready_mask ? slot.idle_visits : slot.bulk_idle_visits;
    while (bits != 0) {
      const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      idle[b] = 0;
      done += drain_bit(slot, b);
    }
  }
  return done;
}

std::size_t Runtime::drain_all(Slot& slot) {
  // Full O(nslots) sweep, the periodic backstop: the doorbell pass keeps
  // the flagged bits' idle accounting going, then every ring's head cell
  // is checked. With the clear handshake no doorbell is lost; what the
  // sweep still bounds is a producer preempted between publishing its
  // cell and ringing the doorbell.
  std::size_t done = drain_ready(slot);
  for (std::uint32_t src = 0; src < registry_.capacity(); ++src) {
    done += drain_ring(slot, slot.rings[src]);
  }
  return done;
}

void Runtime::ring_doorbell(Slot& me, Slot& tgt, SlotId src, bool bulk) {
  // The producer side of the clear handshake (see drain_mask): the cell is
  // published, then a fence, then the mask load. While the bit is set the
  // consumer is guaranteed to visit the ring, so the post skips the
  // shared-line RMW entirely — with sticky bits a producer calling in a
  // loop only ever loads the doorbell line. Bulk posts ring the bulk
  // word, which the consumer serves only after the interactive one —
  // drain priority decided at the doorbell, free of per-cell cost. The
  // set is relaxed: cell payloads are ordered by the cell's seq.
  std::atomic<std::uint64_t>& mask =
      bulk ? tgt.bulk_ready_mask : tgt.ready_mask;
  const std::uint64_t bit = doorbell_bit(src);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if ((mask.load(std::memory_order_relaxed) & bit) != 0) {
    me.counters.inc(obs::Counter::kReadyMaskSkips);
    return;
  }
  mask.fetch_or(bit, std::memory_order_relaxed);
}

bool Runtime::any_ring_pending(const Slot& slot) const {
  for (std::uint32_t src = 0; src < registry_.capacity(); ++src) {
    if (slot.rings[src].head_ready()) return true;
  }
  return false;
}

bool Runtime::help_drain(Slot& target, SlotId self) {
  if (!target.gate.try_steal()) return false;
  // The gate was idle, so nobody polls this slot: drain the flagged rings
  // and hand it back with a clear mask, or its parked owner would wake
  // for nothing.
  settle_doorbells(target);
  // Always sweep our own channel: a waiter rescuing its own call must not
  // depend on a doorbell its own post may not have rung yet.
  drain_ring(target, target.rings[self]);
  target.gate.release_steal();
  return true;
}

CancelToken Runtime::cancel_token_create() {
  // Wait-free monotonic allocation. Values whose pool-index lane is zero
  // are skipped — 0 in the cell's token lane means "not cancellable", so
  // no real token may alias it. The pool is generation-free: reuse needs
  // kMaxCancelTokens intervening allocations, and a stale cancel on a
  // recycled index is a benign spurious kCallAborted (see request_ctx.h).
  std::uint32_t t;
  do {
    t = next_cancel_token_->fetch_add(1, std::memory_order_relaxed);
  } while ((t & kCellTokenLaneMask) == 0);
  cancel_flags_[t & kCellTokenLaneMask].store(0, std::memory_order_relaxed);
  return t;
}

bool Runtime::cancel_requested(CancelToken token) const {
  return token != 0 && cancel_flags_[token & kCellTokenLaneMask].load(
                           std::memory_order_acquire) != 0;
}

void Runtime::cancel(CancelToken token) {
  if (token == 0) return;
  shared_.inc(obs::Counter::kCancelRequests);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  // Raise the flag first: every seam (admission, drain, give-up loops,
  // cooperative handler polls) observes it from here on.
  cancel_flags_[token & kCellTokenLaneMask].store(1,
                                                  std::memory_order_release);
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
    drain_all(slot);
    settle_doorbells(slot);
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

// ---------------------------------------------------------------------------
// The frame ABI (Figure 4 register contract)
// ---------------------------------------------------------------------------

FrameServiceId Runtime::bind_frame(ProgramId program, FrameFn fn,
                                   void* self) {
  HPPC_ASSERT(fn != nullptr);
  shared_.inc(obs::Counter::kBinds);
  shared_.inc(obs::Counter::kLocksTaken);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  std::lock_guard<std::mutex> lock(bind_mutex_);
  HPPC_ASSERT_MSG(next_frame_service_ < kMaxFrameServices,
                  "out of frame services");
  const FrameServiceId id = next_frame_service_++;
  FrameService& fs = frame_services_[id];
  // self/program are plain members: published by the fn release-store and
  // immutable afterwards (unbind only clears fn).
  fs.self = self;
  fs.program = program;
  fs.fn.store(fn, std::memory_order_release);
  return id;
}

Status Runtime::unbind_frame(FrameServiceId id) {
  if (id >= kMaxFrameServices) return Status::kNoSuchEntryPoint;
  shared_.inc(obs::Counter::kSharedLinesTouched);
  if (frame_services_[id].fn.exchange(nullptr, std::memory_order_acq_rel) ==
      nullptr) {
    return Status::kNoSuchEntryPoint;
  }
  return Status::kOk;
}

// Inlined into every frame lane (same-slot, direct, drained): the frame
// path's whole point is that nothing but the handler costs a call.
[[gnu::always_inline]] inline Status Runtime::execute_frame(Slot& slot,
                                                            ProgramId caller,
                                                            CallFrame& f) {
  const FrameServiceId id = frame_service_of(f.op);
  const FrameFn fn = id < kMaxFrameServices
                         ? frame_services_[id].fn.load(std::memory_order_acquire)
                         : nullptr;
  if (fn == nullptr) {
    f.op = frame_with_rc(f.op, Status::kNoSuchEntryPoint);
    return Status::kNoSuchEntryPoint;
  }
  // The entire observed cost beyond the handler: one single-writer counter
  // store. No worker, no CD, no histogram, no trace hook — this is the
  // lane the Figure-2 numbers are chased on.
  slot.counters.inc(obs::Counter::kCallsFrame);
  FrameCtx ctx{this, slot.self_id, caller};
  const Status rc = fn(frame_services_[id].self, ctx, f);
  f.op = frame_with_rc(f.op, rc);
  return rc;
}

Status Runtime::call_frame(SlotId slot_id, ProgramId caller, CallFrame& f) {
  HPPC_ASSERT(slot_id < slots_.size());
  return execute_frame(*slots_[slot_id], caller, f);
}

// ---------------------------------------------------------------------------
// The cross-slot engine
// ---------------------------------------------------------------------------
//
// Every call_remote* wrapper below is one call into submit(): screen →
// admit → direct | post → wait → complete over a span of requests. A lane
// policy supplies the only per-lane steps — screen the submission, encode
// a cell, execute a request directly, copy a reply out — so the typed and
// frame lanes share every counter, histogram, span and failpoint.

namespace {
// The default-constructed options the option-less wrappers pass: one
// read-only object instead of a temporary built on every call.
constexpr CallOptions kNoOptions{};
}  // namespace

/// Typed requests: RegSets against one entry point. The whole request
/// context rides each cell — the absolute deadline in its own lane, the
/// cancel-token index and traffic class in the ep word's spare high bits.
struct Runtime::TypedLane {
  using Req = RegSet;
  static constexpr bool kInFlightContext = true;
  EntryPointId id;

  Status screen(const Runtime& rt, std::span<RegSet>) const {
    const Service* svc = rt.lookup(id);
    if (svc == nullptr) return Status::kNoSuchEntryPoint;
    switch (svc->state.load(std::memory_order_acquire)) {
      case SvcState::kActive:
        return Status::kOk;
      case SvcState::kDraining:
        return Status::kEntryPointDraining;
      default:
        return Status::kNoSuchEntryPoint;
    }
  }
  static void refuse(RegSet& r, Status s) { set_rc(r, s); }
  void encode(XcallCell& cell, const RegSet& r, const Admission& a) const {
    cell.ep = cell_pack_ep(id, a.token, a.bulk);
    cell.deadline = a.deadline;
    cell.regs = r;
  }
  Status execute(Runtime& rt, Slot& tgt, ProgramId caller, RegSet& r) const {
    return rt.execute_remote(tgt, caller, id, r);
  }
  static void reply(RegSet& r, const XcallCell& cell, Status) {
    r = cell.regs;
  }

  /// Async ring-full overflow: a fire-and-forget caller cannot wait for
  /// space, so this rare case rides the legacy allocating mailbox (booked
  /// as such). The deadline and token still hold — the drain lambda
  /// re-checks them before executing.
  Status overflow(Runtime& rt, SlotId target, ProgramId caller,
                  const RegSet& regs, const Admission& a) const {
    rt.post(target, [&rt, target, caller, ep = id, r = regs, a]() mutable {
      Slot& slot = *rt.slots_[target];
      if (a.deadline != 0 && host_cycles() >= a.deadline) {
        slot.counters.inc(obs::Counter::kDeadlineExceeded);
        HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                         obs::TraceEvent::kDeadlineExceeded, ep);
        return;
      }
      if (a.token != 0 && rt.cancel_requested(a.token)) {
        slot.counters.inc(obs::Counter::kCallsCancelled);
        HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                         obs::TraceEvent::kCallCancelled, ep);
        return;
      }
      const RequestCtx saved_req = slot.cur_req;
      RequestCtx req;
      req.abs_deadline_cycles = a.deadline;
      req.cancel_token = a.token;
      req.traffic_class =
          a.bulk ? TrafficClass::kBulk : TrafficClass::kInteractive;
      slot.cur_req = req;
      rt.execute_remote(slot, caller, ep, r);
      slot.cur_req = saved_req;
    });
    return Status::kOk;
  }
};

/// Figure-4 frames: the packed op word rides the cell's deadline lane, so
/// a frame carries no deadline or cancel token in flight — its request
/// context is enforced at admission (and by the retry loop) only, and a
/// frame handler runs outside it whether it executes direct or drained.
struct Runtime::FrameLane {
  using Req = CallFrame;
  static constexpr bool kInFlightContext = false;

  Status screen(const Runtime& rt, std::span<CallFrame> reqs) const {
    for (const CallFrame& f : reqs) {
      const FrameServiceId id = frame_service_of(f.op);
      if (id >= kMaxFrameServices ||
          rt.frame_services_[id].fn.load(std::memory_order_acquire) ==
              nullptr) {
        return Status::kNoSuchEntryPoint;
      }
    }
    return Status::kOk;
  }
  static void refuse(CallFrame& f, Status s) { f.op = frame_with_rc(f.op, s); }
  void encode(XcallCell& cell, const CallFrame& f, const Admission&) const {
    cell.ep = kFrameCellEp | frame_service_of(f.op);
    cell.deadline = f.op;  // the op lane, not a deadline
    cell.regs.w = f.w;
  }
  Status execute(Runtime& rt, Slot& tgt, ProgramId caller,
                 CallFrame& f) const {
    return rt.execute_frame(tgt, caller, f);
  }
  static void reply(CallFrame& f, const XcallCell& cell, Status rc) {
    f.w = cell.regs.w;
    f.op = frame_with_rc(f.op, rc);
  }
  /// No frame wrapper posts without waiting, so nothing overflows here.
  Status overflow(Runtime&, SlotId, ProgramId, const CallFrame&,
                  const Admission&) const {
    return Status::kOverloaded;
  }
};

template <typename Lane>
Status Runtime::refuse_all(Slot& me, [[maybe_unused]] SlotId caller_slot,
                           [[maybe_unused]] SlotId target,
                           std::span<typename Lane::Req> reqs, Status s) {
  if (s == Status::kDeadlineExceeded) {
    me.counters.inc(obs::Counter::kDeadlineExceeded, reqs.size());
    HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), caller_slot,
                     obs::TraceEvent::kDeadlineExceeded, target);
  } else if (s == Status::kCallAborted) {
    me.counters.inc(obs::Counter::kCallsCancelled, reqs.size());
    HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), caller_slot,
                     obs::TraceEvent::kCallCancelled, target);
  }
  for (auto& r : reqs) Lane::refuse(r, s);
  return s;
}

// Inlined into each wrapper on purpose: a direct call is a few dozen
// nanoseconds, and an out-of-line engine call with its stack-passed
// arguments measurably added to it (the frame lane's direct call most).
template <typename Lane>
[[gnu::always_inline]] inline Status Runtime::submit(
    const Lane& lane, SlotId caller_slot, SlotId target, ProgramId caller,
    std::span<typename Lane::Req> reqs, const CallOptions& opts, bool async) {
  HPPC_ASSERT(caller_slot < slots_.size());
  HPPC_ASSERT(target < slots_.size());
  HPPC_ASSERT(target != caller_slot);
  if (reqs.empty()) return Status::kOk;
  Slot& me = *slots_[caller_slot];
  Slot& tgt = *slots_[target];
  // Screen: an unbound or killed service fails before touching the target.
  if (const Status s = lane.screen(*this, reqs); s != Status::kOk) {
    return refuse_all<Lane>(me, caller_slot, target, reqs, s);
  }

  // Admit: fold the per-call knobs into the ambient request the caller is
  // already executing under. The relative deadline converts to an absolute
  // budget exactly once (with_budget) and clamps against the inherited one
  // — tighten, never extend — while the token and class default to the
  // ambient values, so a context installed at the root rides every hop.
  const RequestCtx ambient = me.cur_req;
  Admission adm;
  adm.deadline = opts.with_budget(ambient.abs_deadline_cycles);
  adm.token = opts.cancel_token != 0 ? opts.cancel_token : ambient.cancel_token;
  adm.bulk = opts.traffic_class == TrafficClass::kBulk ||
             ambient.traffic_class == TrafficClass::kBulk;
  if (ambient.abs_deadline_cycles != 0 &&
      adm.deadline == ambient.abs_deadline_cycles) {
    me.counters.inc(obs::Counter::kDeadlineInherited);
  }
  // A spent budget or a cancelled root never touches the target; neither
  // does a call over its class's shed watermark — a lower bulk watermark
  // makes bulk traffic absorb the shedding first.
  if (adm.deadline != 0 && host_cycles() >= adm.deadline) {
    return refuse_all<Lane>(me, caller_slot, target, reqs,
                            Status::kDeadlineExceeded);
  }
  if (adm.token != 0 && cancel_requested(adm.token)) {
    return refuse_all<Lane>(me, caller_slot, target, reqs,
                            Status::kCallAborted);
  }
  const std::uint32_t watermark = shed_watermark(
      adm.bulk ? TrafficClass::kBulk : TrafficClass::kInteractive);
  if (watermark != 0 && xcall_depth(target) >= watermark) {
    me.counters.inc(obs::Counter::kCallsShed, reqs.size());
    if (adm.bulk) me.counters.inc(obs::Counter::kCallsShedBulk, reqs.size());
    HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), caller_slot,
                     obs::TraceEvent::kCallShed, target);
    return refuse_all<Lane>(me, caller_slot, target, reqs,
                            Status::kOverloaded);
  }
  if (adm.bulk) me.counters.inc(obs::Counter::kCallsBulk, reqs.size());

  // One histogram sampling decision per sync call or batch chunk; this one
  // covers the first chunk, whichever stage carries it.
  const bool sampled = !async && hist_sampled(me);
  const std::uint64_t t0 = sampled ? host_cycles() : 0;
  if (async) {
    return submit_ring(lane, caller_slot, target, caller, reqs, opts, adm,
                       /*async=*/true, /*sampled=*/false, /*t0=*/0);
  }
  if (!tgt.gate.try_steal()) {
    return submit_ring_sync(lane, caller_slot, target, caller, reqs, opts,
                            adm, sampled, t0);
  }

  // Direct: the target is parked — we hold its gate, so the whole
  // submission runs right here, against the target's pools (LRPC-style
  // migration). No context switch, no allocation; two shared RMWs (steal +
  // release). Direct execution crosses slots without crossing the ring, so
  // the stolen slot is put under the caller's trace context — and, on a
  // lane whose cells carry the request context, under that too — by hand,
  // exactly as the drain installs what a ring cell carries: nested calls
  // the handlers make inherit the span, the budget and the token.
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
  [[maybe_unused]] const RequestCtx saved_req = tgt.cur_req;
  if constexpr (Lane::kInFlightContext) {
    RequestCtx eff = ambient;
    eff.abs_deadline_cycles = adm.deadline;
    eff.cancel_token = adm.token;
    eff.traffic_class =
        adm.bulk ? TrafficClass::kBulk : TrafficClass::kInteractive;
    tgt.cur_req = eff;
  }
  Status overall = Status::kOk;
  for (auto& r : reqs) {
    const Status s = lane.execute(*this, tgt, caller, r);
    if (overall == Status::kOk) overall = s;
  }
  if constexpr (Lane::kInFlightContext) tgt.cur_req = saved_req;
  // Help while we hold the slot: retire anything ring-queued behind us,
  // and hand the idle slot back with a clear mask. On an idle target this
  // is one load per mask.
  settle_doorbells(tgt);
#if defined(HPPC_TRACE) && HPPC_TRACE
  if (parent.traced()) {
    tgt.cur_trace = saved_trace;
    end_span(me, parent.trace_id, span, parent.span_id, overall);
  }
#endif
  tgt.gate.release_steal();
  // Complete: the sampled RTT, in the submission's histogram class.
  if (sampled) {
    const std::uint64_t rtt = host_cycles() - t0;
    me.hists->record(batched ? obs::Hist::kRttBatched : obs::Hist::kRttRemote,
                     rtt);
    if (adm.bulk) me.hists->record(obs::Hist::kRttBulk, rtt);
  }
  return overall;
}

// A sync submission's ring stages run out of line, so their state — the
// wait ladder among it — never crowds the direct stage's frame and
// registers; an async post is light enough to stay inline.
template <typename Lane>
[[gnu::noinline]] Status Runtime::submit_ring_sync(
    const Lane& lane, SlotId caller_slot, SlotId target, ProgramId caller,
    std::span<typename Lane::Req> reqs, const CallOptions& opts,
    Admission adm, bool sampled, std::uint64_t t0) {
  return submit_ring(lane, caller_slot, target, caller, reqs, opts, adm,
                     /*async=*/false, sampled, t0);
}

template <typename Lane>
[[gnu::always_inline]] inline Status Runtime::submit_ring(
    const Lane& lane, SlotId caller_slot, SlotId target, ProgramId caller,
    std::span<typename Lane::Req> reqs, const CallOptions& opts,
    Admission adm, bool async, bool sampled, std::uint64_t t0) {
  Slot& me = *slots_[caller_slot];
  Slot& tgt = *slots_[target];
  const std::size_t n = reqs.size();
  const bool batched = n > 1;
  // The deadline cells carry, and the one the waiter abandons at. Frames
  // have no lane for it.
  const std::uint64_t in_flight = Lane::kInFlightContext ? adm.deadline : 0;
  Status overall = Status::kOk;
  const auto fold = [&overall](Status s) {
    if (overall == Status::kOk) overall = s;
  };
  const auto fault_hit = [&] {
    me.counters.inc(obs::Counter::kFaultsInjected);
    HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), caller_slot,
                     obs::TraceEvent::kFaultInject, target);
  };
  const auto help = [this, &tgt, caller_slot] {
    help_drain(tgt, caller_slot);
  };

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

  XcallRing& ring = tgt.rings[caller_slot];
  bool booked_full = false;
  bool decided = true;  // the first chunk's sampling decision came with us
  std::uint32_t round = 0;
  std::size_t i = 0;
  while (i < n) {
    if (!decided) {
      sampled = !async && hist_sampled(me);
      t0 = sampled ? host_cycles() : 0;
      decided = true;
    }
    // Post: claim up to a ring's worth of cells with one CAS; the lane
    // encodes each. "rt.xcall.batch.post" delays every chunk post of a
    // batch (a producer preempted mid-batch).
    const std::size_t want = std::min(n - i, XcallRing::kCapacity);
    if (batched && HPPC_FAULT_POINT("rt.xcall.batch.post")) fault_hit();
    std::size_t posted = 0;
    std::uint64_t first = 0;  // a sync chunk's first ring position
    if (!force_full) {
      posted = ring.try_post(
          want,
          [&](XcallCell& cell, std::size_t k) {
            cell.caller = caller;
            lane.encode(cell, reqs[i + k], adm);
#if defined(HPPC_TRACE) && HPPC_TRACE
            cell.tctx = post_ctx;
#endif
          },
          async ? nullptr : &first);
    }
    force_full = false;

    if (posted == 0) {
      // Full ring: the submission's first books xcall_ring_full, each later
      // attempt books a retry. Async overflows (or fails fast); a sync
      // submission follows its retry policy — kBlock helps/yields forever,
      // kBackoff burns a doubling cpu_relax budget per round and gives up
      // after backoff_rounds, kFailFast gives up at once. A call that
      // cannot even be queued before its deadline or cancel was still too
      // late.
      if (!booked_full) {
        booked_full = true;
        me.counters.inc(obs::Counter::kXcallRingFull);
      } else {
        me.counters.inc(obs::Counter::kRetries);
      }
      Status give_up = Status::kOk;
      if (async) {
        give_up = opts.retry == RetryPolicy::kFailFast
                      ? Status::kOverloaded
                      : lane.overflow(*this, target, caller, reqs[i], adm);
        if (give_up == Status::kOk) break;  // handed to the mailbox
      } else if (opts.retry == RetryPolicy::kFailFast ||
                 (opts.retry == RetryPolicy::kBackoff &&
                  round >= opts.backoff_rounds)) {
        give_up = Status::kOverloaded;
      } else if (adm.deadline != 0 && host_cycles() >= adm.deadline) {
        give_up = Status::kDeadlineExceeded;
      } else if (adm.token != 0 && cancel_requested(adm.token)) {
        give_up = Status::kCallAborted;
      }
      if (give_up != Status::kOk) {
        fold(refuse_all<Lane>(me, caller_slot, target, reqs.subspan(i),
                              give_up));
        break;
      }
      if (opts.retry == RetryPolicy::kBackoff) {
        const std::uint32_t spins = 1u << (round < 10 ? round : 10);
        for (std::uint32_t k = 0; k < spins; ++k) cpu_relax();
        me.counters.inc(obs::Counter::kBackoffCycles, spins);
      }
      ++round;
      if (!help_drain(tgt, caller_slot)) std::this_thread::yield();
      continue;
    }

    ring_doorbell(me, tgt, caller_slot, adm.bulk);
    me.counters.inc(obs::Counter::kXcallPosts, posted);
    me.counters.inc(obs::Counter::kSharedLinesTouched, 2);
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

    // Wait, then complete: copy each reply out of its cell and hand the
    // slot back. The first waits dominate the wall time; later ones are
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
      typename Lane::Req& req = reqs[i + k];
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
        // The cell is the server's now: it releases the slot when it
        // reaches it.
        me.counters.inc(obs::Counter::kDeadlineExceeded);
        HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), caller_slot,
                         obs::TraceEvent::kDeadlineExceeded, target);
        Lane::refuse(req, Status::kDeadlineExceeded);
        fold(Status::kDeadlineExceeded);
        continue;
      }
      Lane::reply(req, cell, cell_status(st));
      ring.release(first + k);
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
      if (adm.bulk) me.hists->record(obs::Hist::kRttBulk, rtt);
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
  if (target == caller_slot) return call_frame(caller_slot, caller, f);
  return submit(FrameLane{}, caller_slot, target, caller,
                std::span<CallFrame>(&f, 1), kNoOptions);
}

Status Runtime::call_remote_frame_batch(SlotId caller_slot, SlotId target,
                                        ProgramId caller,
                                        std::span<CallFrame> batch) {
  if (target != caller_slot) {
    return submit(FrameLane{}, caller_slot, target, caller, batch,
                  kNoOptions);
  }
  Status overall = Status::kOk;
  for (CallFrame& f : batch) {
    const Status s = call_frame(caller_slot, caller, f);
    if (overall == Status::kOk) overall = s;
  }
  return overall;
}

Status Runtime::call_remote(SlotId caller_slot, SlotId target,
                            ProgramId caller, EntryPointId id, RegSet& regs) {
  return call_remote(caller_slot, target, caller, id, regs, kNoOptions);
}

Status Runtime::call_remote(SlotId caller_slot, SlotId target,
                            ProgramId caller, EntryPointId id, RegSet& regs,
                            const CallOptions& opts) {
  if (target == caller_slot) return call(caller_slot, caller, id, regs);
  return submit(TypedLane{id}, caller_slot, target, caller,
                std::span<RegSet>(&regs, 1), opts);
}

Status Runtime::call_remote_async(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  RegSet regs) {
  return call_remote_async(caller_slot, target, caller, id, regs,
                           kNoOptions);
}

Status Runtime::call_remote_async(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  RegSet regs, const CallOptions& opts) {
  // Fire-and-forget is still part of the root request: the cell carries
  // the clamped budget, the token and the class, and with no waiter to
  // rescue it, expiry is enforced by the drain — a cell reached late is
  // dropped (deadline_exceeded on the target) rather than executed late.
  if (target == caller_slot) return call_async(caller_slot, caller, id, regs);
  return submit(TypedLane{id}, caller_slot, target, caller,
                std::span<RegSet>(&regs, 1), opts, /*async=*/true);
}

Status Runtime::call_remote_batch(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  std::span<RegSet> batch) {
  return call_remote_batch(caller_slot, target, caller, id, batch,
                           kNoOptions);
}

Status Runtime::call_remote_batch(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  std::span<RegSet> batch,
                                  const CallOptions& opts) {
  if (target != caller_slot) {
    return submit(TypedLane{id}, caller_slot, target, caller, batch, opts);
  }
  Status overall = Status::kOk;
  for (RegSet& regs : batch) {
    const Status s = call(caller_slot, caller, id, regs);
    if (overall == Status::kOk) overall = s;
  }
  return overall;
}

void Runtime::enter_idle(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
  slots_[slot_id]->gate.enter_idle();
}

void Runtime::exit_idle(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
  slots_[slot_id]->gate.exit_idle();
}

std::size_t Runtime::serve(SlotId slot_id, const std::atomic<bool>& stop) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  std::size_t total = 0;
  while (!stop.load(std::memory_order_acquire)) {
    // Settle the sticky doorbells through the clear handshake, then park:
    // the owner goes idle (and direct steals resume) right after the poll
    // that found the rings empty.
    total += poll(slot_id);
    total += settle_doorbells(slot);
    slot.gate.enter_idle();
    // Parked: remote callers direct-execute (or help-drain) through the
    // gate; we only need to wake for control-plane mailbox posts, a rung
    // doorbell, or stop. The idle test is O(1) — one mask load, one
    // mailbox head load — with a periodic head-cell scan as the backstop
    // for a producer preempted between its publish and its doorbell.
    std::uint32_t idle_rounds = 0;
    while (!stop.load(std::memory_order_acquire) &&
           slot.ready_mask.load(std::memory_order_relaxed) == 0 &&
           slot.bulk_ready_mask.load(std::memory_order_relaxed) == 0 &&
           slot.mailbox.empty()) {
      if (++idle_rounds >= 256) {
        idle_rounds = 0;
        if (any_ring_pending(slot)) break;
      }
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
  // Control plane first (kill reclamation must not trail the calls it
  // affects longer than necessary), then one ring batch, then the async
  // queue — which reuses a member scratch buffer instead of constructing
  // a fresh vector every poll.
  std::size_t done = slot.mailbox.drain([&slot](std::function<void()>&& fn) {
    slot.counters.inc(obs::Counter::kMailboxDrains);
    fn();
  });
  // Ready-mask scheduling: drain only the producer rings whose doorbell is
  // rung — idle polls cost one load, busy ones O(popcount) — with a full
  // head-cell scan every kPollScanPeriod-th poll as the backstop for a
  // cell published before its doorbell.
  if (++slot.polls_since_scan >= kPollScanPeriod) {
    slot.polls_since_scan = 0;
    done += drain_all(slot);
  } else {
    done += drain_ready(slot);
  }
  std::vector<DeferredCall>& pending = slot.deferred_scratch;
  pending.swap(slot.deferred);  // async calls made below land in deferred
  for (auto& d : pending) {
    RegSet regs = d.regs;
    // Queueing delay first (enqueue -> execution start), then execute
    // under the context the call was enqueued with, so the async span
    // parents to the caller's span even though it runs a poll later.
    if (d.enqueue_tsc != 0) {
      slot.hists->record(obs::Hist::kRttAsync, host_cycles() - d.enqueue_tsc);
    }
#if defined(HPPC_TRACE) && HPPC_TRACE
    const obs::TraceCtx saved = slot.cur_trace;
    std::uint32_t aspan = 0;
    if (d.tctx.traced()) {
      aspan = begin_span(slot, obs::SpanKind::kAsyncExec, d.tctx.trace_id,
                         d.tctx.span_id);
      slot.cur_trace = d.tctx;
      if (aspan != 0) slot.cur_trace.span_id = aspan;
    }
#endif
    // Execute under the request context the call was enqueued with: a
    // root that expired or was cancelled since enqueue is refused by the
    // screen inside call() instead of executing late.
    const RequestCtx saved_req = slot.cur_req;
    slot.cur_req = d.rctx;
    call(slot_id, d.caller, d.id, regs);  // results discarded (§4.4 async)
    slot.cur_req = saved_req;
#if defined(HPPC_TRACE) && HPPC_TRACE
    if (d.tctx.traced()) {
      slot.cur_trace = saved;
      end_span(slot, d.tctx.trace_id, aspan, d.tctx.span_id, rc_of(regs));
    }
#endif
    ++done;
  }
  pending.clear();  // keep capacity for the next poll
  return done;
}

void Runtime::post(SlotId target, std::function<void()> fn) {
  HPPC_ASSERT(target < slots_.size());
  // A post pushes onto another slot's MPSC list — shared traffic by
  // definition, booked on the shared block (the poster may not own a slot),
  // and it heap-allocates the list node: this is the control-plane path,
  // kept off every hot cross-slot call.
  shared_.inc(obs::Counter::kMailboxPosts);
  shared_.inc(obs::Counter::kMailboxAllocs);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  slots_[target]->mailbox.post(std::move(fn));
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

obs::TraceRing& Runtime::trace_ring(SlotId slot) {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->trace_ring;
}

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

void Runtime::set_trace_ctx(SlotId slot_id, const obs::TraceCtx& ctx) {
  HPPC_ASSERT(slot_id < slots_.size());
  slots_[slot_id]->cur_trace = ctx;
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

obs::SlotHistograms& Runtime::slot_histograms(SlotId slot) {
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
  for (std::uint32_t src = 0; src < registry_.capacity(); ++src) {
    depth += slots_[slot]->rings[src].depth();
  }
  return depth;
}

std::uint64_t Runtime::ready_mask(SlotId slot, TrafficClass cls) const {
  HPPC_ASSERT(slot < slots_.size());
  const Slot& s = *slots_[slot];
  return (cls == TrafficClass::kBulk ? s.bulk_ready_mask : s.ready_mask)
      .load(std::memory_order_relaxed);
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
