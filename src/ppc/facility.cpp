#include "ppc/facility.h"

#include <algorithm>

#include "common/log.h"
#include "fault/failpoints.h"
#include "kernel/address_space.h"
#include "obs/trace.h"
#include "kernel/cpu.h"

namespace hppc::ppc {

using kernel::AddressSpace;
using kernel::Cpu;
using kernel::Machine;
using kernel::Process;
using kernel::ProcessState;
using sim::CostCategory;
using sim::TlbContext;

namespace {

/// Virtual region where worker stacks are mapped in server spaces. Chosen
/// outside any node's physical identity range so virtual stack pages never
/// alias server text/data translations.
constexpr SimAddr kStackVaBase = SimAddr{0xF0} << 40;
constexpr SimAddr kStackVaStride = kPageSize * 64;  // room for 64-page stacks

/// Points one processor's table copy at `ep` for `id`; nullptr removes it.
void set_table_entry(CpuPpcState& st, EntryPointId id, EntryPoint* ep) {
  if (id < kMaxEntryPoints) {
    st.service_table[id] = ep;
  } else if (ep != nullptr) {
    st.hashed_table[id] = ep;
  } else {
    st.hashed_table.erase(id);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ServerCtx out-of-line methods (need the facility/kernel definitions).
// ---------------------------------------------------------------------------

kernel::Machine& ServerCtx::machine() { return cpu_.machine(); }

EntryPoint& ServerCtx::entry_point() { return *worker_.entry_point(); }

void ServerCtx::work(Cycles cycles) {
  cpu_.mem().charge(CostCategory::kServerTime, cycles);
}

void ServerCtx::touch(SimAddr addr, std::size_t bytes, bool is_store) {
  cpu_.mem().access(addr, bytes, is_store,
                    entry_point().address_space()->tlb_context(),
                    CostCategory::kServerTime);
}

void ServerCtx::touch_stack(std::size_t off, std::size_t bytes,
                            bool is_store) {
  EntryPoint& ep = entry_point();
  CallDescriptor* cd = worker_.active_cd();
  HPPC_ASSERT_MSG(cd != nullptr, "touch_stack outside a call");
  const std::uint32_t page_idx = static_cast<std::uint32_t>(off / kPageSize);
  HPPC_ASSERT_MSG(off % kPageSize + bytes <= kPageSize,
                  "stack access may not straddle a page");

  if (page_idx >= worker_.mapped_stack_pages()) {
    HPPC_ASSERT_MSG(ep.config().stack_strategy == StackStrategy::kLazyFault,
                    "stack overflow: access beyond mapped stack pages");
    HPPC_ASSERT_MSG(page_idx < ep.config().stack_pages,
                    "stack overflow: beyond the service's virtual stack");
    // Page fault path (§4.5.4): trap, grab a page, map it. "This would keep
    // the common case fast and only penalize those servers that require the
    // extra space."
    while (worker_.mapped_stack_pages() <= page_idx) {
      cpu_.mem().trap_roundtrip();
      ppc_.map_extra_stack_page(cpu_, ep, worker_, /*pop_cycles=*/12);
    }
  }

  const SimAddr paddr = page_idx == 0
                            ? cd->stack_page()
                            : worker_.active_extra_pages[page_idx - 1];
  const SimAddr va = worker_.stack_vaddr() + off;
  cpu_.mem().access_mapped(paddr + off % kPageSize, va, bytes, is_store,
                           ep.address_space()->tlb_context(),
                           CostCategory::kServerTime);
}

void ServerCtx::set_worker_handler(
    std::function<void(ServerCtx&, RegSet&)> h) {
  // One store to the worker's descriptor (§4.5.3).
  HPPC_TRACE_EVENT(cpu_.trace_ring(), cpu_.now(), cpu_.id(),
                   obs::TraceEvent::kWorkerInit,
                   worker_.entry_point()->id());
  cpu_.mem().store(worker_.context_save_area(), 4, TlbContext::kSupervisor,
                   CostCategory::kServerTime);
  worker_.set_call_handler(std::move(h));
}

Status ServerCtx::call(EntryPointId ep, RegSet& regs) {
  cpu_.counters().inc(obs::Counter::kNestedCalls);
  return ppc_.call(cpu_, worker_, ep, regs);
}

void ServerCtx::block_call(std::function<void(ServerCtx&, RegSet&)> resume) {
  HPPC_ASSERT_MSG(!worker_.blocked_in_call(), "already blocked");
  worker_.resume_fn() = std::move(resume);
}

// ---------------------------------------------------------------------------
// Construction / binding
// ---------------------------------------------------------------------------

PpcFacility::PpcFacility(Machine& machine, PpcCalibration cal)
    : machine_(machine), cal_(cal) {
  auto& alloc = machine_.allocator();
  const auto& cfg = machine_.config();

  text_.reserve(cfg.num_nodes());
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    text_.push_back(PpcKernelText::layout(alloc, n, cal_));
  }

  cpu_state_.reserve(machine_.num_cpus());
  for (CpuId c = 0; c < machine_.num_cpus(); ++c) {
    auto st = std::make_unique<CpuPpcState>();
    const NodeId node = cfg.node_of_cpu(c);
    st->table_saddr = alloc.alloc(node, kMaxEntryPoints * 4, kPageSize);
    st->cd_pools.push_back(CdPool{0, {}, alloc.alloc(node, 32, 16)});
    st->hashed_table_saddr = alloc.alloc(node, 1024, 64);
    machine_.cpu(c).set_ppc_state(st.get());
    cpu_state_.push_back(std::move(st));
  }

  eps_.resize(kMaxEntryPoints);

  // Bootstrap Frank (§4.5.6): a kernel-space server at a well-known id,
  // with all resources preallocated, that may not block or be preempted.
  frank_as_ = &machine_.kernel_as();
  EntryPointConfig frank_cfg;
  frank_cfg.name = "frank";
  frank_cfg.kernel_space = true;
  frank_cfg.hold_cd = true;  // preallocated resources: never on a pool miss
  do_bind(kFrankEp, frank_cfg, frank_as_, /*program=*/0,
          [this](ServerCtx& ctx, RegSet& regs) { frank_handler(ctx, regs); },
          ServiceCode{.handler_instructions = 60, .home_node = 0});
}

PpcFacility::~PpcFacility() {
  for (CpuId c = 0; c < machine_.num_cpus(); ++c) {
    machine_.cpu(c).set_ppc_state(nullptr);
  }
}

CpuPpcState& PpcFacility::state(Cpu& cpu) {
  return *static_cast<CpuPpcState*>(cpu.ppc_state());
}

const UserStubText& PpcFacility::user_stub(AddressSpace& as) {
  auto it = user_stubs_.find(as.id());
  if (it != user_stubs_.end()) return it->second;
  auto& alloc = machine_.allocator();
  const NodeId n = as.home_node();
  // Save and restore stubs live on separate text pages (library layout):
  // after a user->user crossing flushes the user TLB context, each costs
  // its own reload — part of Figure 2's TLB-miss bar.
  UserStubText t;
  t.save = {alloc.alloc(n, std::size_t{cal_.user_save_instr} * 4, kPageSize),
            cal_.user_save_instr, as.tlb_context()};
  t.restore = {alloc.alloc(n, std::size_t{cal_.user_restore_instr} * 4,
                           kPageSize),
               cal_.user_restore_instr, as.tlb_context()};
  return user_stubs_.emplace(as.id(), t).first->second;
}

EntryPointId PpcFacility::do_bind(EntryPointId id, EntryPointConfig cfg,
                                  AddressSpace* as, ProgramId program,
                                  Worker::CallHandler initial_handler,
                                  ServiceCode code) {
  const bool hashed = id >= kMaxEntryPoints;
  if (hashed) {
    auto it = hashed_eps_.find(id);
    HPPC_ASSERT_MSG(it == hashed_eps_.end() ||
                        it->second->state() == EpState::kDead,
                    "entry point id in use");
  } else {
    HPPC_ASSERT_MSG(!eps_[id] || eps_[id]->state() == EpState::kDead,
                    "entry point id in use");
  }
  if (as == nullptr) as = &machine_.kernel_as();
  if (as->supervisor()) cfg.kernel_space = true;
  HPPC_ASSERT_MSG(as->supervisor() == cfg.kernel_space,
                  "kernel_space flag must match the address space");
  if (cfg.stack_strategy == StackStrategy::kSinglePage) cfg.stack_pages = 1;
  HPPC_ASSERT(cfg.stack_pages >= 1 && cfg.stack_pages <= 64);

  auto ep = std::make_unique<EntryPoint>(id, cfg, as, program,
                                         std::move(initial_handler),
                                         machine_.num_cpus());

  auto& alloc = machine_.allocator();
  for (CpuId c = 0; c < machine_.num_cpus(); ++c) {
    ep->per_cpu(c).saddr = alloc.alloc(machine_.config().node_of_cpu(c), 32, 16);
  }

  ServiceText stext;
  stext.handler_code = {
      alloc.alloc(code.home_node, std::size_t{code.handler_instructions} * 4, 16),
      code.handler_instructions, as->tlb_context()};
  service_text_[id] = stext;

  EntryPoint* raw = ep.get();
  if (hashed) {
    hashed_eps_[id] = std::move(ep);
  } else {
    eps_[id] = std::move(ep);
  }
  // Replicate into every processor's table copy (functional part; the
  // traffic is charged when binding goes through Frank's handler).
  publish(id, raw);
  return id;
}

EntryPointId PpcFacility::bind(EntryPointConfig cfg, AddressSpace* as,
                               ProgramId program,
                               Worker::CallHandler initial_handler,
                               ServiceCode code) {
  while (next_ep_ < kMaxEntryPoints && eps_[next_ep_] &&
         eps_[next_ep_]->state() != EpState::kDead) {
    ++next_ep_;
  }
  // Services that opt out of fast lookup — or arrive once the fixed table
  // is full — get ids in the hashed overflow space (§4.5.5).
  if (!cfg.fast_lookup || next_ep_ >= kMaxEntryPoints) {
    return do_bind(next_hashed_ep_++, std::move(cfg), as, program,
                   std::move(initial_handler), code);
  }
  return do_bind(next_ep_++, std::move(cfg), as, program,
                 std::move(initial_handler), code);
}

EntryPointId PpcFacility::bind_well_known(EntryPointId id,
                                          EntryPointConfig cfg,
                                          AddressSpace* as, ProgramId program,
                                          Worker::CallHandler initial_handler,
                                          ServiceCode code) {
  HPPC_ASSERT(id > 0 && id < kFirstDynamicEp);
  return do_bind(id, std::move(cfg), as, program, std::move(initial_handler),
                 code);
}

std::uint32_t PpcFacility::prepare_bind(EntryPointConfig cfg,
                                        AddressSpace* as, ProgramId program,
                                        Worker::CallHandler initial_handler,
                                        ServiceCode code) {
  const std::uint32_t token = next_bind_token_++;
  staged_binds_.emplace(
      token, StagedBind{std::move(cfg), as, program, std::move(initial_handler),
                        code});
  return token;
}

EntryPoint* PpcFacility::entry_point(EntryPointId id) {
  if (id < kMaxEntryPoints) return eps_[id].get();
  auto it = hashed_eps_.find(id);
  return it == hashed_eps_.end() ? nullptr : it->second.get();
}

std::size_t PpcFacility::pooled_workers(CpuId cpu, EntryPointId id) {
  EntryPoint* ep = entry_point(id);
  if (!ep) return 0;
  return ep->per_cpu(cpu).pool.size();
}

// ---------------------------------------------------------------------------
// Fast-path pieces
// ---------------------------------------------------------------------------

EntryPoint* PpcFacility::lookup(Cpu& cpu, EntryPointId id,
                                Status* out_status) {
  auto& mem = cpu.mem();
  auto& st = state(cpu);
  const auto& text = text_[cpu.node()];

  mem.exec(text.entry, CostCategory::kPpcKernel);
  EntryPoint* ep = nullptr;
  if (id < kMaxEntryPoints) {
    // One local load from this CPU's table copy (§4.5.5).
    mem.load(st.table_saddr + SimAddr{id} * 4, 4, TlbContext::kSupervisor,
             CostCategory::kPpcKernel);
    ep = st.service_table[id];
  } else {
    // Overflow services: hash-table lookup with chained buckets — more
    // loads and instructions than the direct index (§4.5.5's extension).
    cpu.counters().inc(obs::Counter::kHashedLookups);
    mem.charge(CostCategory::kPpcKernel, 10);  // hash + compare chain
    mem.load(st.hashed_table_saddr + (id % 32) * 32, 16,
             TlbContext::kSupervisor, CostCategory::kPpcKernel);
    auto it = st.hashed_table.find(id);
    ep = it == st.hashed_table.end() ? nullptr : it->second;
  }
  if (ep == nullptr || ep->state() == EpState::kDead) {
    *out_status = Status::kNoSuchEntryPoint;
    return nullptr;
  }
  if (ep->state() == EpState::kDraining) {
    *out_status = Status::kEntryPointDraining;
    return nullptr;
  }
  *out_status = Status::kOk;
  return ep;
}

Worker* PpcFacility::acquire_worker(Cpu& cpu, EntryPoint& ep) {
  auto& mem = cpu.mem();
  const auto& text = text_[cpu.node()];
  auto& epcpu = ep.per_cpu(cpu.id());

  mem.exec(text.worker_alloc, CostCategory::kPpcKernel);
  mem.access(epcpu.saddr, 8, /*is_store=*/true, TlbContext::kSupervisor,
             CostCategory::kPpcKernel);
  Worker* w = epcpu.pool.pop();
  if (w != nullptr) {
    cpu.counters().inc(obs::Counter::kWorkerPoolHits);
  } else {
    // Redirect to Frank (§4.5.6): create a worker, then continue the call.
    cpu.counters().inc(obs::Counter::kFrankWorkerRefills);
    cpu.counters().inc(obs::Counter::kSlowPathEntries);
    HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                     obs::TraceEvent::kFrankWorkerRefill, ep.id());
    w = frank_create_worker(cpu, ep);
  }
  return w;
}

CdPool& PpcFacility::cd_pool_of(Cpu& cpu, std::uint32_t group) {
  auto& st = state(cpu);
  for (auto& p : st.cd_pools) {
    if (p.group == group) return p;
  }
  // First use of this trust group on this processor: set up its pool
  // (a slow path, like any resource creation).
  cpu.mem().charge(CostCategory::kCdManipulation, 40);
  st.cd_pools.push_back(
      CdPool{group, {}, machine_.allocator().alloc(cpu.node(), 32, 16)});
  return st.cd_pools.back();
}

CallDescriptor* PpcFacility::acquire_cd(Cpu& cpu, Worker& w) {
  auto& mem = cpu.mem();
  const auto& text = text_[cpu.node()];

  CallDescriptor* cd;
  if (w.held_cd() != nullptr) {
    // Hold-CD mode: no free-list traffic; still record return info.
    cpu.counters().inc(obs::Counter::kHoldCdHits);
    cd = w.held_cd();
    mem.charge(CostCategory::kCdManipulation, cal_.cd_fill_instr);
  } else {
    // Stacks are shared only within the service's trust group (§2).
    CdPool& pool = cd_pool_of(cpu, w.entry_point()->config().trust_group);
    mem.exec(text.cd_alloc, CostCategory::kCdManipulation);
    mem.access(pool.saddr, 8, /*is_store=*/true, TlbContext::kSupervisor,
               CostCategory::kCdManipulation);
    cd = pool.pool.pop();
    if (cd != nullptr) {
      cpu.counters().inc(obs::Counter::kCdRecycles);
    } else {
      cpu.counters().inc(obs::Counter::kFrankCdRefills);
      cpu.counters().inc(obs::Counter::kSlowPathEntries);
      HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                       obs::TraceEvent::kFrankCdRefill,
                       w.entry_point()->config().trust_group);
      cd = frank_create_cd(cpu);
    }
  }
  mem.store(cd->saddr(), cal_.cd_bytes, TlbContext::kSupervisor,
            CostCategory::kCdManipulation);
  cd->set_in_use(true);
  w.set_active_cd(cd);
  // The worker's "user stack" for nested calls is the CD's stack page.
  w.set_user_stack(cd->stack_page() + kPageSize - 256);
  return cd;
}

void PpcFacility::release_cd(Cpu& cpu, Worker& w, CallDescriptor* cd) {
  auto& mem = cpu.mem();
  cd->set_caller(nullptr);
  cd->completion() = nullptr;
  cd->set_in_use(false);
  if (w.held_cd() == cd) return;  // stays with the worker
  CdPool& pool = cd_pool_of(cpu, w.entry_point()->config().trust_group);
  mem.exec(text_[cpu.node()].cd_free, CostCategory::kCdManipulation);
  mem.access(pool.saddr, 8, /*is_store=*/true, TlbContext::kSupervisor,
             CostCategory::kCdManipulation);
  pool.pool.push(cd);
}

void PpcFacility::map_worker_stack(Cpu& cpu, EntryPoint& ep, Worker& w,
                                   CallDescriptor* cd) {
  if (w.held_cd() == cd && w.mapped_stack_pages() > 0) {
    return;  // permanently mapped
  }
  auto& mem = cpu.mem();
  AddressSpace* sas = ep.address_space();
  mem.exec(text_[cpu.node()].map_stack, CostCategory::kTlbSetup);
  sas->map_page(w.stack_vaddr(), cd->stack_page());
  mem.tlb_map_one(w.stack_vaddr(), sas->tlb_context());
  w.set_mapped_stack_pages(1);

  if (ep.config().stack_strategy == StackStrategy::kFixedMultiple) {
    // "It simply requires keeping an independent list of stack pages ...
    //  and mapping as many as required. For speed, this would be treated as
    //  an exceptional case." (§4.5.4)
    while (w.mapped_stack_pages() < ep.config().stack_pages) {
      map_extra_stack_page(cpu, ep, w, /*pop_cycles=*/10);
    }
  }
}

void PpcFacility::map_extra_stack_page(Cpu& cpu, EntryPoint& ep, Worker& w,
                                       Cycles pop_cycles) {
  // A spare page from this CPU's list, else a fresh frame.
  auto& mem = cpu.mem();
  auto& spares = ep.per_cpu(cpu.id()).extra_stack_pages;
  SimAddr page;
  if (!spares.empty()) {
    page = spares.back();
    spares.pop_back();
    mem.charge(CostCategory::kCdManipulation, pop_cycles);  // list pop
  } else {
    page = machine_.frames().alloc(cpu.node());
    mem.charge(CostCategory::kCdManipulation, cal_.cd_create_cycles);
  }
  AddressSpace* sas = ep.address_space();
  const SimAddr va =
      w.stack_vaddr() + SimAddr{w.mapped_stack_pages()} * kPageSize;
  sas->map_page(va, page);
  mem.tlb_map_one(va, sas->tlb_context());
  w.active_extra_pages.push_back(page);
  w.set_mapped_stack_pages(w.mapped_stack_pages() + 1);
}

void PpcFacility::unmap_worker_stack(Cpu& cpu, EntryPoint& ep, Worker& w,
                                     CallDescriptor* cd) {
  auto& mem = cpu.mem();
  AddressSpace* sas = ep.address_space();
  // Held stacks stay mapped; extra pages always come off.
  const bool held = w.held_cd() == cd;
  if (!held) mem.exec(text_[cpu.node()].unmap_stack, CostCategory::kTlbSetup);
  while (w.mapped_stack_pages() > 1) {
    const SimAddr va =
        w.stack_vaddr() + SimAddr{w.mapped_stack_pages() - 1} * kPageSize;
    sas->unmap_page(va);
    mem.tlb_unmap_one(va, sas->tlb_context());
    ep.per_cpu(cpu.id()).extra_stack_pages.push_back(
        w.active_extra_pages.back());
    w.active_extra_pages.pop_back();
    w.set_mapped_stack_pages(w.mapped_stack_pages() - 1);
  }
  if (held) return;
  sas->unmap_page(w.stack_vaddr());
  mem.tlb_unmap_one(w.stack_vaddr(), sas->tlb_context());
  w.set_mapped_stack_pages(0);
}

void PpcFacility::switch_space(Cpu& cpu, const Process* other,
                               EntryPoint& ep) {
  // Entering or leaving a user-space server from another space, or with no
  // caller at all, flushes the user TLB context (Figure 2: "A call to a
  // service in the supervisor address space does not require a TLB flush
  // and thus incurs fewer TLB misses").
  AddressSpace* sas = ep.address_space();
  if (!sas->supervisor() &&
      (other == nullptr || sas != other->address_space())) {
    cpu.mem().tlb_flush_user();
  }
}

void PpcFacility::server_frame(Cpu& cpu, EntryPoint& ep, Worker& w,
                               bool is_store) {
  // The server's register frame on its (freshly mapped) stack: stored by
  // the prologue, reloaded by the epilogue.
  cpu.mem().access_mapped(w.active_cd()->stack_page() + kPageSize - 64,
                          w.stack_vaddr() + kPageSize - 64,
                          cal_.server_prologue_bytes, is_store,
                          ep.address_space()->tlb_context(),
                          CostCategory::kServerTime);
}

void PpcFacility::run_handler(Cpu& cpu, EntryPoint& ep, Worker& w,
                              RegSet& regs) {
  auto& mem = cpu.mem();
  CallDescriptor* cd = w.active_cd();

  // Upcall into the server: identity switch + worker (re)initialization to
  // the service's call-handling code (§2).
  mem.exec(text_[cpu.node()].upcall, CostCategory::kPpcKernel);
  mem.load(w.context_save_area(), cal_.worker_ctx_bytes,
           TlbContext::kSupervisor, CostCategory::kKernelSaveRestore);

  Process* prev = cpu.current();
  w.set_state(ProcessState::kRunning);
  cpu.set_current(&w);

  server_frame(cpu, ep, w, /*is_store=*/true);
  mem.exec(service_text_[ep.id()].handler_code, CostCategory::kServerTime);

  ServerCtx ctx(*this, cpu, w, cd->caller_program(), cd->caller_pid());
  // Invoke through a copy: the handler may replace itself mid-call via
  // set_worker_handler (the worker-initialization protocol, §4.5.3).
  Worker::CallHandler handler = w.call_handler();
  handler(ctx, regs);

  if (!w.blocked_in_call()) server_frame(cpu, ep, w, /*is_store=*/false);
  cpu.set_current(prev);
}

void PpcFacility::publish(EntryPointId id, EntryPoint* ep) {
  for (CpuId c = 0; c < machine_.num_cpus(); ++c) {
    set_table_entry(state(machine_.cpu(c)), id, ep);
  }
}

void PpcFacility::finish_drain_if_idle(EntryPoint& ep) {
  if (ep.state() != EpState::kDraining) return;
  if (ep.total_in_progress() != 0) return;
  ep.set_state(EpState::kDead);
  publish(ep.id(), nullptr);
}

void PpcFacility::complete_call(Cpu& cpu, EntryPoint& ep, Worker& w,
                                RegSet& regs) {
  auto& mem = cpu.mem();
  const auto& text = text_[cpu.node()];
  CallDescriptor* cd = w.active_cd();
  Process* caller = cd->caller();

  // Return trap out of the server and the PPC return path.
  mem.trap_roundtrip();
  mem.exec(text.ret_entry, CostCategory::kPpcKernel);

  unmap_worker_stack(cpu, ep, w, cd);
  switch_space(cpu, caller, ep);

  auto completion = std::move(cd->completion());
  release_cd(cpu, w, cd);
  w.set_active_cd(nullptr);

  // Return the worker to its per-CPU pool.
  auto& epcpu = ep.per_cpu(cpu.id());
  mem.exec(text.worker_free, CostCategory::kPpcKernel);
  mem.access(epcpu.saddr, 8, /*is_store=*/true, TlbContext::kSupervisor,
             CostCategory::kPpcKernel);
  w.set_state(ProcessState::kBlocked);
  epcpu.pool.push(&w);
  auto& actives = epcpu.active_workers;
  actives.erase(std::remove(actives.begin(), actives.end(), &w),
                actives.end());
  HPPC_ASSERT(epcpu.in_progress > 0);
  --epcpu.in_progress;

  if (caller != nullptr) {
    // Hand control straight back to the caller (handoff, no scheduler).
    restore_caller(cpu, *caller);
    caller->set_state(ProcessState::kRunning);
    cpu.set_current(caller);
  } else {
    // Async/interrupt/upcall: "the fact that there is no caller waiting is
    // discovered, and another process is selected for execution" (§4.4).
    // The engine's dispatcher performs that selection; here we only pay
    // the discovery branch.
    mem.charge(CostCategory::kPpcKernel, 4);
    cpu.set_current(nullptr);
  }

  mem.charge(CostCategory::kUnaccounted,
             machine_.config().unaccounted_stall_cycles_per_call);
  finish_drain_if_idle(ep);

  if (completion) completion(rc_of(regs), regs);
}

// ---------------------------------------------------------------------------
// The dispatch engine
// ---------------------------------------------------------------------------

void PpcFacility::stub_save(Cpu& cpu, Process& caller) {
  // Only user-space callers run the stub, which spills the registers the
  // call may clobber.
  AddressSpace& as = *caller.address_space();
  if (as.supervisor()) return;
  cpu.mem().exec(user_stub(as).save, CostCategory::kUserSaveRestore);
  cpu.mem().store(caller.user_stack(), cal_.user_reg_bytes, as.tlb_context(),
                  CostCategory::kUserSaveRestore);
}

void PpcFacility::stub_restore(Cpu& cpu, Process& caller) {
  AddressSpace& as = *caller.address_space();
  if (as.supervisor()) return;
  cpu.mem().exec(user_stub(as).restore, CostCategory::kUserSaveRestore);
  cpu.mem().load(caller.user_stack(), cal_.user_reg_bytes, as.tlb_context(),
                 CostCategory::kUserSaveRestore);
}

void PpcFacility::save_caller(Cpu& cpu, Process& caller) {
  // The minimum caller state for the switch into the worker.
  cpu.mem().exec(text_[cpu.node()].kernel_save,
                 CostCategory::kKernelSaveRestore);
  cpu.mem().store(caller.context_save_area(), cal_.kernel_ctx_bytes,
                  TlbContext::kSupervisor, CostCategory::kKernelSaveRestore);
}

void PpcFacility::restore_caller(Cpu& cpu, Process& caller) {
  cpu.mem().exec(text_[cpu.node()].kernel_restore,
                 CostCategory::kKernelSaveRestore);
  cpu.mem().load(caller.context_save_area(), cal_.kernel_ctx_bytes,
                 TlbContext::kSupervisor, CostCategory::kKernelSaveRestore);
}

Worker* PpcFacility::take_worker(Cpu& cpu, EntryPoint& ep, Process* link,
                                 ProgramId caller_prog, Pid caller_pid,
                                 Completion done) {
  // `link` is the caller the CD hands control back to: null for async and
  // kernel-manufactured requests, which have no one waiting.
  Worker* w = acquire_worker(cpu, ep);
  CallDescriptor* cd = acquire_cd(cpu, *w);
  cd->set_caller(link);
  cd->set_caller_identity(caller_prog, caller_pid);
  cd->completion() = std::move(done);
  return w;
}

bool PpcFacility::run_call(Cpu& cpu, EntryPoint& ep, Worker& w,
                           const Process* from, RegSet& regs) {
  auto& epcpu = ep.per_cpu(cpu.id());
  epcpu.in_progress++;
  epcpu.active_workers.push_back(&w);

  map_worker_stack(cpu, ep, w, w.active_cd());
  switch_space(cpu, from, ep);
  run_handler(cpu, ep, w, regs);

  if (w.blocked_in_call()) {
    // Stash the registers in the CD; the call completes on resume_worker.
    w.active_cd()->regs() = regs;
    return false;
  }
  complete_call(cpu, ep, w, regs);
  return true;
}

Status PpcFacility::dispatch_no_caller(Cpu& cpu, EntryPointId id, RegSet regs,
                                       Completion done) {
  Status s;
  EntryPoint* ep = lookup(cpu, id, &s);
  if (ep == nullptr) {
    set_rc(regs, s);
    if (done) done(s, regs);
    return s;
  }
  Worker* w = take_worker(cpu, *ep, nullptr, /*kernel*/ 0, kInvalidPid,
                          std::move(done));
  run_call(cpu, *ep, *w, nullptr, regs);
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Call variants
// ---------------------------------------------------------------------------

Status PpcFacility::call(Cpu& cpu, Process& caller, EntryPointId id,
                         RegSet& regs) {
  const Cycles call_t0 = cpu.now();
  stub_save(cpu, caller);
  cpu.mem().trap_roundtrip();

  Status s;
  EntryPoint* ep = lookup(cpu, id, &s);
  if (ep != nullptr) {
    cpu.counters().inc(obs::Counter::kCallsSync);
    HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                     obs::TraceEvent::kCallEnter, id);
    // Fault seam: pretend Frank's redirect could not produce a worker or CD
    // (§4.5.6 exhaustion) — the sim analogue of rt.worker.exhausted. Unwinds
    // exactly like a lookup failure.
    if (HPPC_FAULT_POINT("ppc.call.frank_exhausted")) {
      cpu.counters().inc(obs::Counter::kFaultsInjected);
      HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                       obs::TraceEvent::kFaultInject, id);
      ep = nullptr;
      s = Status::kOutOfResources;
    }
  }
  if (ep == nullptr) {
    set_rc(regs, s);
    stub_restore(cpu, caller);
    return s;
  }

  Worker* w = take_worker(cpu, *ep, &caller, caller.program(), caller.pid());
  save_caller(cpu, caller);
  const ProcessState caller_prev_state = caller.state();
  caller.set_state(ProcessState::kBlocked);
  const bool completed = run_call(cpu, *ep, *w, &caller, regs);
  HPPC_ASSERT_MSG(completed,
                  "handler blocked inside synchronous call(); the service "
                  "needs call_blocking");
  caller.set_state(caller_prev_state);
  stub_restore(cpu, caller);

  HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                   obs::TraceEvent::kCallExit,
                   static_cast<Word>(rc_of(regs)));
  // Whole-call latency in simulated cycles — deterministic per schedule, so
  // the distribution doubles as a regression oracle for the cost model.
  cpu.histograms().record(obs::Hist::kRttSync, cpu.now() - call_t0);
  return rc_of(regs);
}

Status PpcFacility::call_blocking(Cpu& cpu, Process& caller, EntryPointId id,
                                  RegSet regs, Completion on_complete) {
  stub_save(cpu, caller);
  cpu.mem().trap_roundtrip();

  Status s;
  EntryPoint* ep = lookup(cpu, id, &s);
  if (ep == nullptr) {
    set_rc(regs, s);
    on_complete(s, regs);
    return s;
  }

  cpu.counters().inc(obs::Counter::kCallsSync);
  cpu.counters().inc(obs::Counter::kCallsBlocking);
  HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                   obs::TraceEvent::kCallEnter, id);
  Worker* w = take_worker(cpu, *ep, &caller, caller.program(), caller.pid(),
                          std::move(on_complete));
  save_caller(cpu, caller);
  machine_.block(caller);
  return run_call(cpu, *ep, *w, &caller, regs) ? rc_of(regs) : Status::kOk;
}

Status PpcFacility::call_async(Cpu& cpu, Process& caller, EntryPointId id,
                               RegSet regs) {
  stub_save(cpu, caller);
  cpu.mem().trap_roundtrip();

  Status s;
  EntryPoint* ep = lookup(cpu, id, &s);
  if (ep == nullptr) return s;

  cpu.counters().inc(obs::Counter::kCallsAsync);
  HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                   obs::TraceEvent::kAsyncEnqueue, id);

  // "Asynchronous requests are implemented ... by putting the calling
  //  process onto the processor ready-queue rather than linking it into the
  //  call descriptor of the worker." (§4.4)
  cpu.mem().exec(text_[cpu.node()].async_enqueue, CostCategory::kPpcKernel);
  save_caller(cpu, caller);
  machine_.ready(cpu, caller);

  Worker* w = take_worker(cpu, *ep, nullptr, caller.program(), caller.pid());
  run_call(cpu, *ep, *w, &caller, regs);
  return Status::kOk;
}

Status PpcFacility::upcall(Cpu& cpu, EntryPointId id, RegSet regs) {
  cpu.counters().inc(obs::Counter::kCallsUpcall);
  HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                   obs::TraceEvent::kUpcall, id);
  cpu.mem().trap_roundtrip();
  return dispatch_no_caller(cpu, id, std::move(regs));
}

void PpcFacility::raise_interrupt(CpuId target, Cycles time, EntryPointId id,
                                  RegSet regs) {
  // "An asynchronous request from the kernel to the device server is
  //  manufactured by the interrupt handler and dispatched as for a normal
  //  call." (§4.4) The trap cost is charged by the machine's interrupt
  //  delivery; the dispatch path is the normal no-caller PPC path.
  machine_.post_event(target, time, [this, id, regs](Cpu& cpu) mutable {
    cpu.counters().inc(obs::Counter::kCallsInterrupt);
    HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                     obs::TraceEvent::kInterrupt, id);
    dispatch_no_caller(cpu, id, regs);
  });
}

void PpcFacility::resume_worker(Cpu& cpu, Worker& worker) {
  HPPC_ASSERT_MSG(worker.blocked_in_call(), "worker is not blocked");
  HPPC_ASSERT_MSG(worker.home_cpu() == cpu.id(),
                  "workers never migrate; resume via an event on their CPU");
  auto& mem = cpu.mem();
  EntryPoint& ep = *worker.entry_point();
  CallDescriptor* cd = worker.active_cd();

  // Re-dispatch the worker: reload its context.
  mem.exec(machine_.text(cpu.node()).dispatch, CostCategory::kPpcKernel);
  mem.load(worker.context_save_area(), cal_.worker_ctx_bytes,
           TlbContext::kSupervisor, CostCategory::kKernelSaveRestore);

  Process* prev = cpu.current();
  worker.set_state(ProcessState::kRunning);
  cpu.set_current(&worker);

  auto resume = std::move(worker.resume_fn());
  worker.resume_fn() = nullptr;
  ServerCtx ctx(*this, cpu, worker, cd->caller_program(), cd->caller_pid());
  resume(ctx, cd->regs());

  cpu.set_current(prev);
  if (worker.blocked_in_call()) return;  // blocked again

  // Epilogue that run_handler skipped when the call first blocked.
  server_frame(cpu, ep, worker, /*is_store=*/false);
  RegSet regs = cd->regs();
  Process* caller = cd->caller();
  complete_call(cpu, ep, worker, regs);
  // The synchronous-style caller becomes runnable again.
  if (caller != nullptr) machine_.ready(cpu, *caller);
}

Status PpcFacility::call_remote(Cpu& cpu, Process& caller, CpuId target,
                                EntryPointId id, RegSet regs,
                                Completion on_complete) {
  if (target == cpu.id()) {
    return call_blocking(cpu, caller, id, std::move(regs),
                         std::move(on_complete));
  }
  HPPC_ASSERT(target < machine_.num_cpus());
  cpu.counters().inc(obs::Counter::kCallsRemote);
  HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                   obs::TraceEvent::kRemoteCall, target);

  // Origin side: save state, block the caller, ship the request as an
  // interrupt to the target processor (§4.3: cross-processor operations
  // travel as remote interrupts).
  stub_save(cpu, caller);
  cpu.mem().trap_roundtrip();
  save_caller(cpu, caller);
  machine_.block(caller);

  const CpuId origin = cpu.id();
  Process* caller_ptr = &caller;

  // The target executes the call with *its own* resources; the completion
  // posts an IPI back to the origin, which restores and readies the caller.
  machine_.post_ipi(
      cpu, target,
      [this, id, regs, origin, caller_ptr, target,
       done = std::move(on_complete)](Cpu& tcpu) mutable {
        dispatch_no_caller(
            tcpu, id, std::move(regs),
            [this, origin, caller_ptr, target,
             done = std::move(done)](Status s, RegSet& out) mutable {
              RegSet result = out;
              machine_.post_ipi(
                  machine_.cpu(target), origin,
                  [this, caller_ptr, done = std::move(done), result,
                   s](Cpu& ocpu) mutable {
                    restore_caller(ocpu, *caller_ptr);
                    machine_.ready(ocpu, *caller_ptr);
                    if (done) done(s, result);
                  });
            });
      });
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Frank: resource creation slow paths and the PPC-visible interface
// ---------------------------------------------------------------------------

Worker* PpcFacility::frank_create_worker(Cpu& cpu, EntryPoint& ep) {
  auto& mem = cpu.mem();
  const auto& text = text_[cpu.node()];

  // Redirect cost + creation/initialization of the worker process (§4.5.6:
  // "the call is redirected to Frank, who creates a new worker process,
  // initializes it for the particular target entry point, and forwards the
  // call to the original target entry point").
  mem.exec(text.frank_redirect, CostCategory::kPpcKernel);
  mem.charge(CostCategory::kPpcKernel, cal_.worker_create_cycles);

  auto& alloc = machine_.allocator();
  auto w = std::make_unique<Worker>(
      machine_.allocate_pid(), ep.program(), ep.address_space(),
      ep.config().name + "-worker", &ep, cpu.id());
  w->set_context_save_area(alloc.alloc(cpu.node(), 64, 16));
  // Each worker owns a disjoint stack window in the server's space so that
  // concurrent calls never collide on the mapping.
  w->set_stack_vaddr(kStackVaBase +
                     SimAddr{++worker_slot_counter_} * kStackVaStride);
  w->set_call_handler(ep.initial_handler());

  if (ep.config().hold_cd) {
    // The worker permanently acquires a CD and stack (§2's security
    // compromise); it is charged as part of worker creation.
    CdPool& pool = cd_pool_of(cpu, ep.config().trust_group);
    CallDescriptor* cd = pool.pool.pop();
    if (cd == nullptr) cd = frank_create_cd(cpu);
    w->set_held_cd(cd);
    // Map the held stack permanently.
    ep.address_space()->map_page(w->stack_vaddr(), cd->stack_page());
    mem.tlb_map_one(w->stack_vaddr(), ep.address_space()->tlb_context());
    w->set_mapped_stack_pages(1);
  }

  ep.per_cpu(cpu.id()).workers_created++;
  cpu.counters().inc(obs::Counter::kWorkersCreated);
  HPPC_TRACE_EVENT(cpu.trace_ring(), cpu.now(), cpu.id(),
                   obs::TraceEvent::kWorkerCreate, ep.id());
  Worker* raw = w.get();
  workers_.push_back(std::move(w));
  return raw;
}

CallDescriptor* PpcFacility::frank_create_cd(Cpu& cpu) {
  auto& mem = cpu.mem();
  const auto& text = text_[cpu.node()];
  mem.exec(text.frank_redirect, CostCategory::kCdManipulation);
  mem.charge(CostCategory::kCdManipulation, cal_.cd_create_cycles);

  auto& alloc = machine_.allocator();
  const NodeId n = cpu.node();
  auto cd = std::make_unique<CallDescriptor>(
      alloc.alloc(n, 32, 32), machine_.frames().alloc(n), cpu.id());
  cpu.counters().inc(obs::Counter::kCdsCreated);
  CallDescriptor* raw = cd.get();
  cds_.push_back(std::move(cd));
  return raw;
}

void PpcFacility::frank_handler(ServerCtx& ctx, RegSet& regs) {
  switch (opcode_of(regs)) {
    case kFrankAllocEp: {
      auto it = staged_binds_.find(regs[0]);
      if (it == staged_binds_.end()) {
        set_rc(regs, Status::kInvalidArgument);
        return;
      }
      StagedBind sb = std::move(it->second);
      staged_binds_.erase(it);
      // Only the program that staged the request may complete it (§4.1:
      // servers authenticate callers by program id themselves).
      if (sb.program != ctx.caller_program() && ctx.caller_program() != 0) {
        set_rc(regs, Status::kPermissionDenied);
        return;
      }
      ctx.work(220);  // table updates on every processor
      const EntryPointId id = bind(std::move(sb.cfg), sb.as, sb.program,
                                   std::move(sb.handler), sb.code);
      ctx.cpu().counters().inc(obs::Counter::kBinds);
      HPPC_TRACE_EVENT(ctx.cpu().trace_ring(), ctx.cpu().now(),
                       ctx.cpu().id(), obs::TraceEvent::kBind, id);
      regs[0] = id;
      set_rc(regs, Status::kOk);
      return;
    }
    case kFrankSoftKill: {
      ctx.work(80);
      set_rc(regs, soft_kill(ctx.cpu(), regs[0]));
      return;
    }
    case kFrankHardKill: {
      ctx.work(120);
      set_rc(regs, hard_kill(ctx.cpu(), regs[0]));
      return;
    }
    case kFrankTrimPools: {
      trim_pools(ctx.cpu());
      set_rc(regs, Status::kOk);
      return;
    }
    case kFrankStats: {
      EntryPoint* ep = entry_point(regs[0]);
      if (ep == nullptr) {
        set_rc(regs, Status::kNoSuchEntryPoint);
        return;
      }
      ctx.work(40);
      regs[0] = ep->total_workers_created();
      regs[1] = ep->total_in_progress();
      // Per-CPU observability counters of the *calling* processor, so a
      // server can audit the zero-contention claim through the same Frank
      // interface it uses for everything else (truncated to Word).
      const obs::SlotCounters& c = ctx.cpu().counters();
      regs[2] = static_cast<Word>(c.get(obs::Counter::kCallsSync));
      regs[3] = static_cast<Word>(c.get(obs::Counter::kFrankWorkerRefills));
      regs[4] = static_cast<Word>(c.get(obs::Counter::kFrankCdRefills));
      regs[5] = static_cast<Word>(c.get(obs::Counter::kLocksTaken));
      regs[6] = static_cast<Word>(c.get(obs::Counter::kSharedLinesTouched));
      set_rc(regs, Status::kOk);
      return;
    }
    default:
      set_rc(regs, Status::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Death and destruction (§4.5.2)
// ---------------------------------------------------------------------------

Status PpcFacility::soft_kill(Cpu& from, EntryPointId id) {
  from.counters().inc(obs::Counter::kSoftKills);
  HPPC_TRACE_EVENT(from.trace_ring(), from.now(), from.id(),
                   obs::TraceEvent::kSoftKill, id);
  EntryPoint* ep = entry_point(id);
  if (ep == nullptr || ep->state() == EpState::kDead) {
    return Status::kNoSuchEntryPoint;
  }
  if (ep->state() == EpState::kDraining) return Status::kOk;
  // "a soft-kill removes the entry point and all associated data structures
  //  immediately, but allows calls in progress to complete"
  ep->set_state(EpState::kDraining);
  finish_drain_if_idle(*ep);
  return Status::kOk;
}

void PpcFacility::hard_kill_on_cpu(Cpu& cpu, EntryPoint& ep) {
  auto& mem = cpu.mem();
  auto& epcpu = ep.per_cpu(cpu.id());

  // Abort calls in progress on this CPU (only blocked workers can be
  // mid-call when the IPI arrives; a running call occupies the CPU).
  std::vector<Worker*> actives = epcpu.active_workers;
  for (Worker* w : actives) {
    HPPC_ASSERT(w->blocked_in_call());
    w->resume_fn() = nullptr;
    CallDescriptor* cd = w->active_cd();
    set_rc(cd->regs(), Status::kCallAborted);
    RegSet regs = cd->regs();
    Process* caller = cd->caller();
    auto completion = std::move(cd->completion());
    cd->completion() = nullptr;

    unmap_worker_stack(cpu, ep, *w, cd);
    release_cd(cpu, *w, cd);
    w->set_active_cd(nullptr);
    w->set_state(ProcessState::kDead);
    --epcpu.in_progress;

    if (caller != nullptr) {
      mem.load(caller->context_save_area(), cal_.kernel_ctx_bytes,
               TlbContext::kSupervisor, CostCategory::kKernelSaveRestore);
      machine_.ready(cpu, *caller);
    }
    if (completion) completion(Status::kCallAborted, regs);
  }
  epcpu.active_workers.clear();

  // Destroy pooled workers and return held resources.
  while (Worker* w = epcpu.pool.pop()) {
    reclaim_worker(cpu, w);
  }
  // Clear this CPU's table entry.
  auto& st = state(cpu);
  if (ep.id() < kMaxEntryPoints) {
    mem.store(st.table_saddr + SimAddr{ep.id()} * 4, 4,
              TlbContext::kSupervisor, CostCategory::kPpcKernel);
  } else {
    mem.store(st.hashed_table_saddr + (ep.id() % 32) * 32, 16,
              TlbContext::kSupervisor, CostCategory::kPpcKernel);
  }
  set_table_entry(st, ep.id(), nullptr);
}

void PpcFacility::reclaim_worker(Cpu& cpu, Worker* w) {
  auto& mem = cpu.mem();
  cpu.counters().inc(obs::Counter::kWorkersReclaimed);
  mem.charge(CostCategory::kPpcKernel, 60);  // teardown
  if (CallDescriptor* cd = w->held_cd()) {
    EntryPoint& ep = *w->entry_point();
    if (w->mapped_stack_pages() > 0) {
      ep.address_space()->unmap_page(w->stack_vaddr());
      mem.tlb_unmap_one(w->stack_vaddr(), ep.address_space()->tlb_context());
      w->set_mapped_stack_pages(0);
    }
    w->set_held_cd(nullptr);
    cd->set_in_use(false);
    cd_pool_of(machine_.cpu(cd->home_cpu()),
               w->entry_point()->config().trust_group)
        .pool.push(cd);
  }
  w->set_state(ProcessState::kDead);
}

Status PpcFacility::hard_kill(Cpu& from, EntryPointId id) {
  from.counters().inc(obs::Counter::kHardKills);
  HPPC_TRACE_EVENT(from.trace_ring(), from.now(), from.id(),
                   obs::TraceEvent::kHardKill, id);
  EntryPoint* ep = entry_point(id);
  if (ep == nullptr || ep->state() == EpState::kDead) {
    return Status::kNoSuchEntryPoint;
  }
  // "The hard-kill frees all resources and aborts any calls in progress."
  // Per-processor resources may only be touched by their owner (§4.5.2:
  // "some cleanup operations [are] performed by interrupting the
  // appropriate processor", like TLB shootdown).
  ep->set_state(EpState::kDead);
  for (CpuId c = 0; c < machine_.num_cpus(); ++c) {
    if (c == from.id()) {
      hard_kill_on_cpu(from, *ep);
    } else {
      EntryPoint* raw = ep;
      machine_.post_ipi(from, c, [this, raw](Cpu& target) {
        hard_kill_on_cpu(target, *raw);
      });
    }
  }
  return Status::kOk;
}

Status PpcFacility::exchange(Cpu& from, EntryPointId id,
                             Worker::CallHandler new_handler) {
  (void)from;
  EntryPoint* ep = entry_point(id);
  if (ep == nullptr || ep->state() != EpState::kActive) {
    return Status::kNoSuchEntryPoint;
  }
  // On-line replacement (§4.5.2): new workers get the new handler; workers
  // already initialized keep the old code until reclaimed. Drain pooled
  // workers so subsequent calls pick up the replacement immediately.
  ep->set_initial_handler(std::move(new_handler));
  for (CpuId c = 0; c < machine_.num_cpus(); ++c) {
    auto& pool = ep->per_cpu(c).pool;
    while (Worker* w = pool.pop()) {
      reclaim_worker(machine_.cpu(c), w);
    }
  }
  return Status::kOk;
}

void PpcFacility::trim_pools(Cpu& cpu) {
  // "extra stacks created during peak call activity can easily be
  //  reclaimed" (§2).
  cpu.counters().inc(obs::Counter::kPoolTrims);
  auto& st = state(cpu);
  constexpr std::size_t kCdTarget = 2;
  for (auto& pool : st.cd_pools) {
    while (pool.pool.size() > kCdTarget) {
      CallDescriptor* cd = pool.pool.pop();
      cpu.mem().charge(CostCategory::kCdManipulation, 24);
      // The descriptor's stack page goes back to the frame allocator for
      // reuse; the CD object itself is retired.
      machine_.frames().free(cd->stack_page());
    }
  }
  auto trim_ep = [&](EntryPoint* ep) {
    if (ep == nullptr || ep->state() != EpState::kActive) return;
    auto& epcpu = ep->per_cpu(cpu.id());
    while (epcpu.pool.size() > ep->config().pool_target) {
      Worker* w = epcpu.pool.pop();
      reclaim_worker(cpu, w);
    }
  };
  for (auto& ep : eps_) trim_ep(ep.get());
  for (auto& [id, ep] : hashed_eps_) trim_ep(ep.get());
}

}  // namespace hppc::ppc
