// The PPC facility: the paper's primary contribution.
//
// Fast-path property (§1, §2): a call in the common case touches only
// resources owned by the local processor — its service-table copy, its CD
// pool, the target service's local worker pool, and a node-local stack
// page — so it accesses no shared data and takes no lock. The only global
// synchronization in this implementation lives on the slow paths (binding,
// kills, Frank refills), exactly as in the paper.
//
// Variants (§4.4): synchronous calls, asynchronous calls (caller goes to
// the ready queue instead of being linked into the CD), interrupt
// dispatching (an async PPC manufactured by the interrupt handler), and
// upcalls (the same mechanism triggered by software).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kernel/machine.h"
#include "ppc/code_layout.h"
#include "ppc/cpu_state.h"
#include "ppc/entry_point.h"
#include "ppc/regs.h"
#include "ppc/server_ctx.h"
#include "ppc/worker.h"

namespace hppc::ppc {

/// Well-known entry points (§4.5.5, §4.5.6).
inline constexpr EntryPointId kFrankEp = 1;       // resource manager
inline constexpr EntryPointId kNameServerEp = 2;  // name service
inline constexpr EntryPointId kCopyServerEp = 3;  // bulk data (§4.2)
inline constexpr EntryPointId kFirstDynamicEp = 8;

/// Extra cost/shape knobs for a service beyond EntryPointConfig: the
/// simulated footprint of its handler code and where its text/data live.
struct ServiceCode {
  std::uint32_t handler_instructions = 20;  // null server: a few saves
  NodeId home_node = 0;  // where the server's text and data live
};

/// Frank's PPC interface (§4.5.6): opcodes in the opflags word.
enum FrankOp : Word {
  kFrankAllocEp = 1,    // w[0]=bind token      -> w[0]=new EP id
  kFrankSoftKill = 2,   // w[0]=EP id
  kFrankHardKill = 3,   // w[0]=EP id
  kFrankTrimPools = 4,  // reclaim surplus workers/CDs on this CPU
  kFrankStats = 5,      // w[0]=EP id -> w[0]=workers created, w[1]=in flight
};

class PpcFacility {
 public:
  explicit PpcFacility(kernel::Machine& machine, PpcCalibration cal = {});
  ~PpcFacility();

  PpcFacility(const PpcFacility&) = delete;
  PpcFacility& operator=(const PpcFacility&) = delete;

  kernel::Machine& machine() { return machine_; }
  const PpcCalibration& calibration() const { return cal_; }

  // ------------------------------------------------------------------
  // Binding and destruction
  // ------------------------------------------------------------------

  /// Bind a service directly (the in-kernel path Frank itself uses).
  /// `as == nullptr` binds into the kernel address space (kernel_space
  /// services). Returns the new entry point id.
  EntryPointId bind(EntryPointConfig cfg, kernel::AddressSpace* as,
                    ProgramId program, Worker::CallHandler initial_handler,
                    ServiceCode code = {});

  /// Bind at a fixed, well-known id (name server, copy server; §4.5.5:
  /// "the Name Server (which has a well-known entry point ID)").
  EntryPointId bind_well_known(EntryPointId id, EntryPointConfig cfg,
                               kernel::AddressSpace* as, ProgramId program,
                               Worker::CallHandler initial_handler,
                               ServiceCode code = {});

  /// Stage a bind request for Frank: returns a token a client passes in
  /// w[0] of a kFrankAllocEp call. (In the real system the token is the
  /// handler's address inside the caller's space; here it indexes a staged
  /// request since host function objects cannot travel through registers.)
  std::uint32_t prepare_bind(EntryPointConfig cfg, kernel::AddressSpace* as,
                             ProgramId program,
                             Worker::CallHandler initial_handler,
                             ServiceCode code = {});

  /// §4.5.2. soft_kill lets in-progress calls complete; hard_kill aborts
  /// them and reclaims per-CPU resources by interrupting each processor.
  Status soft_kill(kernel::Cpu& from, EntryPointId id);
  Status hard_kill(kernel::Cpu& from, EntryPointId id);

  /// §4.5.2 mentions Exchange for on-line replacement: atomically rebind
  /// the id to a new handler; in-flight calls finish against the old one.
  Status exchange(kernel::Cpu& from, EntryPointId id,
                  Worker::CallHandler new_handler);

  EntryPoint* entry_point(EntryPointId id);

  // ------------------------------------------------------------------
  // Call variants
  // ------------------------------------------------------------------

  /// Synchronous PPC: the common case. The handler must not block (use
  /// call_blocking for services that may). regs[kOpWord] carries
  /// opcode+flags in, rc out; all 8 words travel both ways in registers.
  Status call(kernel::Cpu& cpu, kernel::Process& caller, EntryPointId id,
              RegSet& regs);

  /// Synchronous semantics with a continuation-style return so the server
  /// may block mid-call (engine mode). `on_complete` runs on the caller's
  /// CPU when the call finishes; the caller process is blocked meanwhile.
  Status call_blocking(kernel::Cpu& cpu, kernel::Process& caller,
                       EntryPointId id, RegSet regs,
                       std::function<void(Status, RegSet&)> on_complete);

  /// Asynchronous PPC (§4.4): the caller is placed on the ready queue
  /// rather than linked into the CD, and continues independently.
  Status call_async(kernel::Cpu& cpu, kernel::Process& caller,
                    EntryPointId id, RegSet regs);

  /// Upcall (§4.4): a software interrupt — an async PPC with no caller.
  Status upcall(kernel::Cpu& cpu, EntryPointId id, RegSet regs);

  /// Interrupt dispatching (§4.4): schedule delivery of a device interrupt
  /// on `target` at `time`; the interrupt handler manufactures an async
  /// PPC to entry point `id`.
  void raise_interrupt(CpuId target, Cycles time, EntryPointId id,
                       RegSet regs);

  /// Cross-processor PPC (§4.3's "cross-process PPC variant", listed as
  /// future work in the paper): execute the call on `target` using that
  /// processor's resources; results return by IPI and `on_complete` runs on
  /// the caller's CPU. For devices and low-level OS functions only — the
  /// local case is the one worth optimizing.
  Status call_remote(kernel::Cpu& cpu, kernel::Process& caller, CpuId target,
                     EntryPointId id, RegSet regs,
                     std::function<void(Status, RegSet&)> on_complete);

  /// Resume a worker previously blocked via ServerCtx::block_call.
  /// Must run on the worker's home CPU (cross-CPU wakeups arrive as
  /// events/IPIs, like every cross-processor operation).
  void resume_worker(kernel::Cpu& cpu, Worker& worker);

  // ------------------------------------------------------------------
  // Maintenance / introspection
  // ------------------------------------------------------------------

  /// Reclaim surplus pool entries on this CPU down to each service's
  /// pool_target ("extra stacks created during peak call activity can
  /// easily be reclaimed", §2).
  void trim_pools(kernel::Cpu& cpu);

  CpuPpcState& state(kernel::Cpu& cpu);
  CpuPpcState& state(CpuId id) { return state(machine_.cpu(id)); }

  /// Total workers currently pooled for an EP on a CPU (tests).
  std::size_t pooled_workers(CpuId cpu, EntryPointId id);

 private:
  friend class ServerCtx;

  /// Client-side stub text for an address space (created on first use).
  const UserStubText& user_stub(kernel::AddressSpace& as);

  struct StagedBind {
    EntryPointConfig cfg;
    kernel::AddressSpace* as;
    ProgramId program;
    Worker::CallHandler handler;
    ServiceCode code;
  };

  struct ServiceText {
    sim::CodeRegion handler_code;
  };

  using Completion = std::function<void(Status, RegSet&)>;

  // Fast-path helpers (all charge costs on `cpu`).
  EntryPoint* lookup(kernel::Cpu& cpu, EntryPointId id, Status* out_status);
  Worker* acquire_worker(kernel::Cpu& cpu, EntryPoint& ep);
  CallDescriptor* acquire_cd(kernel::Cpu& cpu, Worker& w);
  void release_cd(kernel::Cpu& cpu, Worker& w, CallDescriptor* cd);
  void map_worker_stack(kernel::Cpu& cpu, EntryPoint& ep, Worker& w,
                        CallDescriptor* cd);
  void map_extra_stack_page(kernel::Cpu& cpu, EntryPoint& ep, Worker& w,
                            Cycles pop_cycles);
  void unmap_worker_stack(kernel::Cpu& cpu, EntryPoint& ep, Worker& w,
                          CallDescriptor* cd);
  void switch_space(kernel::Cpu& cpu, const kernel::Process* other,
                    EntryPoint& ep);
  void server_frame(kernel::Cpu& cpu, EntryPoint& ep, Worker& w,
                    bool is_store);
  void run_handler(kernel::Cpu& cpu, EntryPoint& ep, Worker& w, RegSet& regs);
  void complete_call(kernel::Cpu& cpu, EntryPoint& ep, Worker& w,
                     RegSet& regs);
  void publish(EntryPointId id, EntryPoint* ep);
  void finish_drain_if_idle(EntryPoint& ep);

  // The dispatch engine: every call variant is a prologue around these
  // (§4.4: a manufactured request is "dispatched as for a normal call").
  void stub_save(kernel::Cpu& cpu, kernel::Process& caller);
  void stub_restore(kernel::Cpu& cpu, kernel::Process& caller);
  void save_caller(kernel::Cpu& cpu, kernel::Process& caller);
  void restore_caller(kernel::Cpu& cpu, kernel::Process& caller);
  Worker* take_worker(kernel::Cpu& cpu, EntryPoint& ep, kernel::Process* link,
                      ProgramId caller_prog, Pid caller_pid,
                      Completion done = nullptr);
  bool run_call(kernel::Cpu& cpu, EntryPoint& ep, Worker& w,
                const kernel::Process* from, RegSet& regs);
  Status dispatch_no_caller(kernel::Cpu& cpu, EntryPointId id, RegSet regs,
                            Completion done = nullptr);

  // Slow paths (Frank, §4.5.6).
  Worker* frank_create_worker(kernel::Cpu& cpu, EntryPoint& ep);
  CallDescriptor* frank_create_cd(kernel::Cpu& cpu);
  void frank_handler(ServerCtx& ctx, RegSet& regs);

  EntryPointId do_bind(EntryPointId id, EntryPointConfig cfg,
                       kernel::AddressSpace* as, ProgramId program,
                       Worker::CallHandler initial_handler, ServiceCode code);
  void reclaim_worker(kernel::Cpu& cpu, Worker* w);
  void hard_kill_on_cpu(kernel::Cpu& cpu, EntryPoint& ep);

  CdPool& cd_pool_of(kernel::Cpu& cpu, std::uint32_t group);

  kernel::Machine& machine_;
  PpcCalibration cal_;
  std::vector<PpcKernelText> text_;  // per node
  std::vector<std::unique_ptr<CpuPpcState>> cpu_state_;
  std::vector<std::unique_ptr<EntryPoint>> eps_;
  std::unordered_map<EntryPointId, std::unique_ptr<EntryPoint>> hashed_eps_;
  std::vector<std::unique_ptr<CallDescriptor>> cds_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unordered_map<AsId, UserStubText> user_stubs_;
  std::unordered_map<EntryPointId, ServiceText> service_text_;
  std::unordered_map<std::uint32_t, StagedBind> staged_binds_;
  std::uint32_t next_bind_token_ = 1;
  std::uint64_t worker_slot_counter_ = 0;
  EntryPointId next_ep_ = kFirstDynamicEp;
  EntryPointId next_hashed_ep_ = kMaxEntryPoints;
  kernel::AddressSpace* frank_as_ = nullptr;  // kernel AS alias
};

}  // namespace hppc::ppc
