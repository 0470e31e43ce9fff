// Golden call-path tests. The first group pins the coalesced sequence of
// cost categories a warm user-to-user null PPC charges, in order: the
// *structure* of the fast path — if a refactor reorders, adds, or drops a
// step, it fails even when the totals still round to the same
// microseconds. The second group pins every call variant's full cost
// ledger: each charge's category and cycles, in order, plus the CPU's
// counter deltas, for a cold and a warm call. The simulator is
// cycle-deterministic and cache state depends on access order, so these
// strings change only when the cost model does.
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernel/machine.h"
#include "ppc/facility.h"

namespace hppc::ppc {
namespace {

using kernel::Machine;
using kernel::Process;
using sim::CostCategory;

std::vector<CostCategory> coalesced_call_path(bool kernel_server,
                                              bool hold_cd) {
  Machine machine(sim::hector_config(1));
  PpcFacility ppc(machine);
  EntryPointConfig cfg;
  cfg.kernel_space = kernel_server;
  cfg.hold_cd = hold_cd;
  kernel::AddressSpace* as =
      kernel_server ? nullptr : &machine.create_address_space(700, 0);
  const EntryPointId ep = ppc.bind(
      cfg, as, 700,
      [](ServerCtx&, RegSet& regs) { set_rc(regs, Status::kOk); });
  auto& cas = machine.create_address_space(100, 0);
  Process& client = machine.create_process(100, &cas, "c", 0);
  auto& cpu = machine.cpu(0);

  RegSet regs;
  for (int i = 0; i < 8; ++i) {
    set_op(regs, 1);
    ppc.call(cpu, client, ep, regs);
  }
  std::vector<CostCategory> steps;
  cpu.mem().set_trace([&](CostCategory c, Cycles, Cycles) {
    if (steps.empty() || steps.back() != c) steps.push_back(c);
  });
  set_op(regs, 1);
  ppc.call(cpu, client, ep, regs);
  cpu.mem().clear_trace();
  return steps;
}

TEST(CallPathGolden, UserToUserWarm) {
  using C = CostCategory;
  const std::vector<C> expected = {
      C::kUserSaveRestore,    // stub + register spill
      C::kTlbMiss,            // stub save page reload (post previous flush)
      C::kUserSaveRestore,    // spill tail
      C::kTrapOverhead,       // trap into the kernel
      C::kPpcKernel,          // entry + table lookup + worker alloc
      C::kCdManipulation,     // CD pop + fill
      C::kKernelSaveRestore,  // caller context save
      C::kTlbSetup,           // map stack + flush user context
      C::kPpcKernel,          // upcall into the server
      C::kKernelSaveRestore,  // worker (re)initialization
      C::kTlbMiss,            // server stack page
      C::kServerTime,         // prologue + handler
      C::kTlbMiss,            // server code page
      C::kServerTime,         // handler tail + epilogue
      C::kTrapOverhead,       // return trap
      C::kPpcKernel,          // return path
      C::kTlbSetup,           // unmap + flush back
      C::kCdManipulation,     // CD free
      C::kPpcKernel,          // worker free
      C::kKernelSaveRestore,  // caller context restore
      C::kUnaccounted,        // residual stalls
      C::kUserSaveRestore,    // stub restore entry
      C::kTlbMiss,            // stub restore page reload
      C::kUserSaveRestore,    // register reload
      C::kTlbMiss,            // user stack page reload
      C::kUserSaveRestore,    // reload tail
  };
  EXPECT_EQ(coalesced_call_path(false, false), expected);
}

TEST(CallPathGolden, UserToKernelHasNoUserTlbTraffic) {
  const auto steps = coalesced_call_path(true, false);
  // Warm user->kernel: the dual-context TLB keeps everything resident
  // except the freshly remapped stack page.
  int tlb_misses = 0;
  for (auto c : steps) {
    if (c == CostCategory::kTlbMiss) ++tlb_misses;
  }
  EXPECT_LE(tlb_misses, 1);
  // And no user-context flush pair: exactly two TLB-setup steps (map,
  // unmap) appear, same as u2u, but they are cheaper — totals are covered
  // by fig2 tests; here we only pin the structure.
  int tlb_setup = 0;
  for (auto c : steps) {
    if (c == CostCategory::kTlbSetup) ++tlb_setup;
  }
  EXPECT_EQ(tlb_setup, 2);
}

TEST(CallPathGolden, HoldCdSkipsPoolAndMapSteps) {
  const auto steps = coalesced_call_path(true, true);
  for (auto c : steps) {
    EXPECT_NE(c, CostCategory::kTlbSetup);  // stack permanently mapped
  }
  // CD fill still happens (return info), so kCdManipulation appears, but
  // only once (no separate free step).
  int cd = 0;
  for (auto c : steps) {
    if (c == CostCategory::kCdManipulation) ++cd;
  }
  EXPECT_EQ(cd, 1);
}


// ---------------------------------------------------------------------------
// Per-variant cost ledgers
// ---------------------------------------------------------------------------

char category_code(CostCategory c) {
  switch (c) {
    case CostCategory::kTlbSetup: return 'L';
    case CostCategory::kServerTime: return 'S';
    case CostCategory::kKernelSaveRestore: return 'K';
    case CostCategory::kUserSaveRestore: return 'U';
    case CostCategory::kCdManipulation: return 'C';
    case CostCategory::kPpcKernel: return 'P';
    case CostCategory::kTlbMiss: return 'M';
    case CostCategory::kTrapOverhead: return 'T';
    case CostCategory::kUnaccounted: return 'X';
    case CostCategory::kIdle: return 'I';
    case CostCategory::kNumCategories: break;
  }
  return '?';
}

// Records every charge on one CPU and the CPU's counter deltas until
// take(), as text: "T60 P21 P3*2 ... | calls_sync+1 worker_pool_hits+1".
// Each charge is its category code and cycles; a run of identical charges
// prints once with its repeat count.
class Ledger {
 public:
  explicit Ledger(kernel::Cpu& cpu) : cpu_(cpu) {
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      before_[i] = cpu.counters().get(static_cast<obs::Counter>(i));
    }
    cpu.mem().set_trace([this](CostCategory c, Cycles n, Cycles) {
      charges_.emplace_back(c, n);
    });
  }

  std::string take() {
    cpu_.mem().clear_trace();
    std::string out;
    for (std::size_t i = 0; i < charges_.size();) {
      std::size_t run = 1;
      while (i + run < charges_.size() && charges_[i + run] == charges_[i]) {
        ++run;
      }
      if (!out.empty()) out += ' ';
      out += category_code(charges_[i].first);
      out += std::to_string(charges_[i].second);
      if (run > 1) out += '*' + std::to_string(run);
      i += run;
    }
    out += " |";
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      const auto c = static_cast<obs::Counter>(i);
      const std::uint64_t d = cpu_.counters().get(c) - before_[i];
      if (d != 0) out += std::string(" ") + obs::counter_name(c) + "+" +
                         std::to_string(d);
    }
    return out;
  }

 private:
  kernel::Cpu& cpu_;
  std::array<std::uint64_t, obs::kNumCounters> before_{};
  std::vector<std::pair<CostCategory, Cycles>> charges_;
};

// The ledgers of `cpus` over one run of `fn`, one string per CPU.
template <class Fn>
std::vector<std::string> ledgers(std::initializer_list<kernel::Cpu*> cpus,
                                 Fn&& fn) {
  std::vector<std::unique_ptr<Ledger>> open;
  for (kernel::Cpu* cpu : cpus) open.push_back(std::make_unique<Ledger>(*cpu));
  fn();
  std::vector<std::string> out;
  for (auto& l : open) out.push_back(l->take());
  return out;
}

using Ledgers = std::vector<std::string>;

// A two-CPU machine with one user client on CPU 0 (program 100) and
// servers bound in a user space of their own (program 700) or, with
// `cfg.kernel_space`, in the kernel.
struct LedgerRig {
  LedgerRig() : machine(sim::hector_config(2)), ppc(machine) {
    auto& cas = machine.create_address_space(100, 0);
    client = &machine.create_process(100, &cas, "c", 0);
  }

  EntryPointId bind(Worker::CallHandler h, EntryPointConfig cfg = {}) {
    kernel::AddressSpace* as =
        cfg.kernel_space ? nullptr : &machine.create_address_space(700, 0);
    return ppc.bind(std::move(cfg), as, 700, std::move(h));
  }

  static void null_handler(ServerCtx&, RegSet& regs) {
    set_rc(regs, Status::kOk);
  }

  Machine machine;
  PpcFacility ppc;
  Process* client = nullptr;
  kernel::Cpu& cpu0() { return machine.cpu(0); }
  kernel::Cpu& cpu1() { return machine.cpu(1); }
};

// Ledgers of the first call (cold: Frank creates the worker and the CD)
// and of the third (warm: both come from the per-CPU pools).
template <class Fn>
std::pair<Ledgers, Ledgers> cold_and_warm(
    std::initializer_list<kernel::Cpu*> cpus, Fn&& one_call) {
  Ledgers cold = ledgers(cpus, one_call);
  one_call();
  Ledgers warm = ledgers(cpus, one_call);
  return {std::move(cold), std::move(warm)};
}

void expect_ledgers(const std::pair<Ledgers, Ledgers>& got,
                    const Ledgers& cold, const Ledgers& warm) {
  EXPECT_EQ(got.first, cold);
  EXPECT_EQ(got.second, warm);
}

TEST(CallPathGolden, LedgerCallUserToUser) {
  LedgerRig r;
  const EntryPointId ep = r.bind(LedgerRig::null_handler);
  RegSet regs;
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call(r.cpu0(), *r.client, ep, regs), Status::kOk);
  });
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 P10 P3*3 M27 P30 P90 "
       "P3*23 P900 C20 C3*5 M27 C30 C90 C0*23 C350 M27 C30 K20 K3*5 M27 K30*2 "
       "L6 L3*2 L6 L14 P18 P3*5 M27 K20 M27 S30*2 S20 M27 S3*5 S1*2 T28 P22 "
       "P3*6 L5 L3*2 L6 L14 C8 C3*2 C1 P8 P3*2 P1 K20 K3*5 K1*2 X40 U18 M27 "
       "U3*5 M27 U1*4 | calls_sync+1 workers_created+1 cds_created+1 "
       "slow_path_entries+2 frank_worker_refills+1 frank_cd_refills+1"},
      {"U20 M27 U0*5 U1*4 T28 P34 P0*9 P1 P10 P0*3 P1 C20 C0*5 C1*2 K20 K0*5 "
       "K1*2 L6 L0*2 L6 L14 P18 P0*5 K1 M27 S1*2 S20 M27 S0*5 S1*2 T28 P22 "
       "P0*6 L5 L0*2 L6 L14 C8 C0*2 C1 P8 P0*2 P1 K20 K0*5 K1*2 X40 U18 M27 "
       "U0*5 M27 U1*4 | calls_sync+1 worker_pool_hits+1 cd_recycles+1"});
}

TEST(CallPathGolden, LedgerCallUserToKernel) {
  LedgerRig r;
  EntryPointConfig cfg;
  cfg.kernel_space = true;
  const EntryPointId ep = r.bind(LedgerRig::null_handler, cfg);
  RegSet regs;
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call(r.cpu0(), *r.client, ep, regs), Status::kOk);
  });
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 P10 P3*3 M27 P30 P90 "
       "P3*23 P900 C20 C3*5 M27 C30 C90 C0*23 C350 M27 C30 K20 K3*5 M27 K30*2 "
       "L6 L3*2 L6 P18 P3*5 M27 K20 M27 S30*2 S20 S3*5 S1*2 T28 P22 P3*6 L5 "
       "L3*2 L6 C8 C3*2 C1 P8 P3*2 P1 K20 K3*5 K1*2 X40 U18 M27 U3*5 U1*4 | "
       "calls_sync+1 workers_created+1 cds_created+1 slow_path_entries+2 "
       "frank_worker_refills+1 frank_cd_refills+1"},
      {"U20 U0*5 U1*4 T28 P34 P0*9 P1 P10 P0*3 P1 C20 C0*5 C1*2 K20 K0*5 K1*2 "
       "L6 L0*2 L6 P18 P0*5 K1 M27 S1*2 S20 S0*5 S1*2 T28 P22 P0*6 L5 L0*2 L6 "
       "C8 C0*2 C1 P8 P0*2 P1 K20 K0*5 K1*2 X40 U18 U0*5 U1*4 | calls_sync+1 "
       "worker_pool_hits+1 cd_recycles+1"});
}

TEST(CallPathGolden, LedgerCallHoldCd) {
  // The worker keeps its CD and its stack stays mapped: no pool traffic
  // and no map/unmap after the first call.
  LedgerRig r;
  EntryPointConfig cfg;
  cfg.hold_cd = true;
  const EntryPointId ep = r.bind(LedgerRig::null_handler, cfg);
  RegSet regs;
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call(r.cpu0(), *r.client, ep, regs), Status::kOk);
  });
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 P10 P3*3 M27 P30 P90 "
       "P3*23 P900 C90 C0*23 C350 L6 C8 M27 C30 K20 K3*5 M27 K30*2 L14 P18 "
       "P3*5 M27 K20 M27 S30*2 S20 M27 S3*5 S1*2 T28 P22 P3*6 L14 P8 P3*2 P1 "
       "K20 K3*5 K1*2 X40 U18 M27 U3*5 M27 U1*4 | calls_sync+1 hold_cd_hits+1 "
       "workers_created+1 cds_created+1 slow_path_entries+1 "
       "frank_worker_refills+1"},
      {"U20 M27 U0*5 U1*4 T28 P34 P0*9 P1 P10 P0*3 P1 C8 C1 K20 K0*5 K1*2 L14 "
       "P18 P0*5 K1 M27 S1*2 S20 M27 S0*5 S1*2 T28 P22 P0*6 L14 P8 P0*2 P1 "
       "K20 K0*5 K1*2 X40 U18 M27 U0*5 M27 U1*4 | calls_sync+1 hold_cd_hits+1 "
       "worker_pool_hits+1"});
}

TEST(CallPathGolden, LedgerCallFixedMultipleStack) {
  // Every call maps all three stack pages; warm calls pop the two extra
  // pages from the per-CPU spare list.
  LedgerRig r;
  EntryPointConfig cfg;
  cfg.stack_strategy = StackStrategy::kFixedMultiple;
  cfg.stack_pages = 3;
  const EntryPointId ep = r.bind(LedgerRig::null_handler, cfg);
  RegSet regs;
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call(r.cpu0(), *r.client, ep, regs), Status::kOk);
  });
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 P10 P3*3 M27 P30 P90 "
       "P3*23 P900 C20 C3*5 M27 C30 C90 C0*23 C350 M27 C30 K20 K3*5 M27 K30*2 "
       "L6 L3*2 L6 C350 L6 C350 L6 L14 P18 P3*5 M27 K20 M27 S30*2 S20 M27 "
       "S3*5 S1*2 T28 P22 P3*6 L5 L3*2 L6*3 L14 C8 C3*2 C1 P8 P3*2 P1 K20 "
       "K3*5 K1*2 X40 U18 M27 U3*5 M27 U1*4 | calls_sync+1 workers_created+1 "
       "cds_created+1 slow_path_entries+2 frank_worker_refills+1 "
       "frank_cd_refills+1"},
      {"U20 M27 U0*5 U1*4 T28 P34 P0*9 P1 P10 P0*3 P1 C20 C0*5 C1*2 K20 K0*5 "
       "K1*2 L6 L0*2 L6 C10 L6 C10 L6 L14 P18 P0*5 K1 M27 S1*2 S20 M27 S0*5 "
       "S1*2 T28 P22 P0*6 L5 L0*2 L6*3 L14 C8 C0*2 C1 P8 P0*2 P1 K20 K0*5 "
       "K1*2 X40 U18 M27 U0*5 M27 U1*4 | calls_sync+1 worker_pool_hits+1 "
       "cd_recycles+1"});
}

TEST(CallPathGolden, LedgerCallLazyFaultStack) {
  // The handler touches its third stack page: two faults per call, each
  // mapping a page from the spare list once warm.
  LedgerRig r;
  EntryPointConfig cfg;
  cfg.stack_strategy = StackStrategy::kLazyFault;
  cfg.stack_pages = 4;
  const EntryPointId ep = r.bind(
      [](ServerCtx& ctx, RegSet& regs) {
        ctx.touch_stack(2 * kPageSize + 64, 8, /*is_store=*/true);
        set_rc(regs, Status::kOk);
      },
      cfg);
  RegSet regs;
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call(r.cpu0(), *r.client, ep, regs), Status::kOk);
  });
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 P10 P3*3 M27 P30 P90 "
       "P3*23 P900 C20 C3*5 M27 C30 C90 C0*23 C350 M27 C30 K20 K3*5 M27 K30*2 "
       "L6 L3*2 L6 L14 P18 P3*5 M27 K20 M27 S30*2 S20 M27 S3*5 T28 C350 L6 "
       "T28 C350 L6 M27 S30 S1*2 T28 P22 P3*6 L5 L3*2 L6*3 L14 C8 C3*2 C1 P8 "
       "P3*2 P1 K20 K3*5 K1*2 X40 U18 M27 U3*5 M27 U1*4 | calls_sync+1 "
       "workers_created+1 cds_created+1 slow_path_entries+2 "
       "frank_worker_refills+1 frank_cd_refills+1"},
      {"U20 M27 U0*5 U1*4 T28 P34 P0*9 P1 P10 P0*3 P1 C20 C0*5 C1*2 K20 K0*5 "
       "K1*2 L6 L0*2 L6 L14 P18 P0*5 K1 M27 S1*2 S20 M27 S0*5 T28 C12 L6 T28 "
       "C12 L6 M27 S1*3 T28 P22 P0*6 L5 L0*2 L6*3 L14 C8 C0*2 C1 P8 P0*2 P1 "
       "K20 K0*5 K1*2 X40 U18 M27 U0*5 M27 U1*4 | calls_sync+1 "
       "worker_pool_hits+1 cd_recycles+1"});
}

TEST(CallPathGolden, LedgerCallBlockingInline) {
  LedgerRig r;
  const EntryPointId ep = r.bind(LedgerRig::null_handler);
  int completions = 0;
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    RegSet regs;
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call_blocking(r.cpu0(), *r.client, ep, regs,
                                  [&](Status s, RegSet&) {
                                    EXPECT_EQ(s, Status::kOk);
                                    ++completions;
                                  }),
              Status::kOk);
  });
  EXPECT_EQ(completions, 3);
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 P10 P3*3 M27 P30 P90 "
       "P3*23 P900 C20 C3*5 M27 C30 C90 C0*23 C350 M27 C30 K20 K3*5 M27 K30*2 "
       "L6 L3*2 L6 L14 P18 P3*5 M27 K20 M27 S30*2 S20 M27 S3*5 S1*2 T28 P22 "
       "P3*6 L5 L3*2 L6 L14 C8 C3*2 C1 P8 P3*2 P1 K20 K3*5 K1*2 X40 | "
       "calls_sync+1 calls_blocking+1 workers_created+1 cds_created+1 "
       "slow_path_entries+2 frank_worker_refills+1 frank_cd_refills+1"},
      {"U20 M27 U0*5 M27 U1*4 T28 P34 P0*9 P1 P10 P0*3 P1 C20 C0*5 C1*2 K20 "
       "K0*5 K1*2 L6 L0*2 L6 L14 P18 P0*5 K1 M27 S1*2 S20 M27 S0*5 S1*2 T28 "
       "P22 P0*6 L5 L0*2 L6 L14 C8 C0*2 C1 P8 P0*2 P1 K20 K0*5 K1*2 X40 | "
       "calls_sync+1 calls_blocking+1 worker_pool_hits+1 cd_recycles+1"});
}

TEST(CallPathGolden, LedgerCallBlockingThenResume) {
  LedgerRig r;
  Worker* blocked = nullptr;
  const EntryPointId ep = r.bind([&](ServerCtx& ctx, RegSet&) {
    blocked = &ctx.worker();
    ctx.block_call([](ServerCtx&, RegSet& regs) {
      regs[1] = 0xD00D;
      set_rc(regs, Status::kOk);
    });
  });
  Word seen = 0;
  const auto call = [&] {
    RegSet regs;
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call_blocking(r.cpu0(), *r.client, ep, regs,
                                  [&](Status, RegSet& out) { seen = out[1]; }),
              Status::kOk);
  };
  const auto resume = [&] {
    r.ppc.resume_worker(r.cpu0(), *blocked);
    r.machine.block(*r.client);  // off the ready queue for the next call
  };
  const Ledgers cold_call = ledgers({&r.cpu0()}, call);
  EXPECT_EQ(seen, 0u);
  const Ledgers cold_resume = ledgers({&r.cpu0()}, resume);
  EXPECT_EQ(seen, 0xD00Du);
  call();
  resume();
  const Ledgers warm_call = ledgers({&r.cpu0()}, call);
  const Ledgers warm_resume = ledgers({&r.cpu0()}, resume);
  expect_ledgers(
      {cold_call, warm_call},
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 P10 P3*3 M27 P30 P90 "
       "P3*23 P900 C20 C3*5 M27 C30 C90 C0*23 C350 M27 C30 K20 K3*5 M27 K30*2 "
       "L6 L3*2 L6 L14 P18 P3*5 M27 K20 M27 S30*2 S20 M27 S3*5 | calls_sync+1 "
       "calls_blocking+1 workers_created+1 cds_created+1 slow_path_entries+2 "
       "frank_worker_refills+1 frank_cd_refills+1"},
      {"U20 M27 U0*5 M27 U1*4 T28 P34 P0*9 P1 P10 P0*3 P1 C20 C0*5 C1*2 K20 "
       "K0*5 K1*2 L6 L0*2 L6 L14 P18 P0*5 K1 M27 S1*2 S20 M27 S0*5 | "
       "calls_sync+1 calls_blocking+1 worker_pool_hits+1 cd_recycles+1"});
  expect_ledgers(
      {cold_resume, warm_resume},
      {"P24 P3*6 K1 S1*2 T28 P22 P3*6 L5 L3*2 L6 L14 C8 C3*2 C1 P8 P3*2 P1 "
       "K20 K3*5 K1*2 X40 P30 |"},
      {"P24 P0*6 K1 S1*2 T28 P22 P0*6 L5 L0*2 L6 L14 C8 C0*2 C1 P8 P0*2 P1 "
       "K20 K0*5 K1*2 X40 P1 |"});
}

TEST(CallPathGolden, LedgerCallAsync) {
  LedgerRig r;
  const EntryPointId ep = r.bind(LedgerRig::null_handler);
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    RegSet regs;
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call_async(r.cpu0(), *r.client, ep, regs), Status::kOk);
    r.machine.block(*r.client);  // off the ready queue for the next call
  });
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 P12 P3*3 K20 K3*5 M27 "
       "K30*2 P30 P10 P3*3 M27 P30 P90 P3*23 P900 C20 C3*5 M27 C30 C90 C0*23 "
       "C350 M27 C30 L6 L3*2 L6 L14 P18 P3*5 M27 K20 M27 S30*2 S20 M27 S3*5 "
       "S1*2 T28 P22 P3*6 L5 L3*2 L6 L14 C8 C3*2 C1 P8 P3*2 P1 P4 X40 | "
       "calls_async+1 workers_created+1 cds_created+1 slow_path_entries+2 "
       "frank_worker_refills+1 frank_cd_refills+1"},
      {"U20 M27 U0*5 M27 U1*4 T28 P34 P0*9 P1 P12 P0*3 K20 K0*5 K1*2 P1 P10 "
       "P0*3 P1 C20 C0*5 C1*2 L6 L0*2 L6 L14 P18 P0*5 K1 M27 S1*2 S20 M27 "
       "S0*5 S1*2 T28 P22 P0*6 L5 L0*2 L6 L14 C8 C0*2 C1 P8 P0*2 P1 P4 X40 | "
       "calls_async+1 worker_pool_hits+1 cd_recycles+1"});
}

TEST(CallPathGolden, LedgerUpcall) {
  LedgerRig r;
  const EntryPointId ep = r.bind(LedgerRig::null_handler);
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    RegSet regs;
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.upcall(r.cpu0(), ep, regs), Status::kOk);
  });
  expect_ledgers(
      got,
      {"T28 P34 M27 P3*9 M27 P20 P10 P3*3 M27 P30 P90 P3*23 P900 C20 C3*5 M27 "
       "C30 C90 C0*23 C350 M27 C30 L6 L3*2 L6 L14 P18 P3*5 K20 M27 S30*2 S20 "
       "M27 S3*5 S1*2 T28 P22 P3*6 L5 L3*2 L6 L14 C8 C3*2 C1 P8 P3*2 P1 P4 "
       "X40 | calls_upcall+1 workers_created+1 cds_created+1 "
       "slow_path_entries+2 frank_worker_refills+1 frank_cd_refills+1"},
      {"T28 P34 P0*9 P1 P10 P0*3 P1 C20 C0*5 C1*2 L6 L0*2 L6 L14 P18 P0*5 K1 "
       "M27 S1*2 S20 M27 S0*5 S1*2 T28 P22 P0*6 L5 L0*2 L6 L14 C8 C0*2 C1 P8 "
       "P0*2 P1 P4 X40 | calls_upcall+1 worker_pool_hits+1 cd_recycles+1"});
}

TEST(CallPathGolden, LedgerRaiseInterrupt) {
  LedgerRig r;
  const EntryPointId ep = r.bind(LedgerRig::null_handler);
  const auto got = cold_and_warm({&r.cpu1()}, [&] {
    RegSet regs;
    regs[0] = 0x11;  // device vector
    set_op(regs, 1);
    r.ppc.raise_interrupt(1, r.cpu1().now() + 1000, ep, regs);
    r.machine.run_until_idle();
  });
  expect_ledgers(
      got,
      {"I1000 T28 P18 M27 P3*5 P34 P3*9 M27 P20 P10 P3*3 M27 P30 P90 P3*23 "
       "P900 C20 C3*5 M27 C30 C90 C0*23 C350 M27 C30 L6 L3*2 L6 L14 P18 P3*5 "
       "K20 M27 S30*2 S20 M27 S3*5 S1*2 T28 P22 P3*6 L5 L3*2 L6 L14 C8 C3*2 "
       "C1 P8 P3*2 P1 P4 X40 | calls_interrupt+1 workers_created+1 "
       "cds_created+1 slow_path_entries+2 frank_worker_refills+1 "
       "frank_cd_refills+1"},
      {"I1000 T28 P18 P0*5 P34 P0*9 P1 P10 P0*3 P1 C20 C0*5 C1*2 L6 L0*2 L6 "
       "L14 P18 P0*5 K1 M27 S1*2 S20 M27 S0*5 S1*2 T28 P22 P0*6 L5 L0*2 L6 "
       "L14 C8 C0*2 C1 P8 P0*2 P1 P4 X40 | calls_interrupt+1 "
       "worker_pool_hits+1 cd_recycles+1"});
}

TEST(CallPathGolden, LedgerCallRemote) {
  LedgerRig r;
  const EntryPointId ep = r.bind(LedgerRig::null_handler);
  // Readied by the completion IPI; blocks again until the next call.
  r.client->set_body([&](kernel::Cpu&, Process& self) {
    r.machine.block(self);
  });
  int completions = 0;
  const auto got = cold_and_warm({&r.cpu0(), &r.cpu1()}, [&] {
    RegSet regs;
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call_remote(r.cpu0(), *r.client, 1, ep, regs,
                                [&](Status s, RegSet&) {
                                  EXPECT_EQ(s, Status::kOk);
                                  ++completions;
                                }),
              Status::kOk);
    r.machine.run_until_idle();
  });
  EXPECT_EQ(completions, 3);
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 K20 M27 K3*5 M27 K30*2 P10 I2606 T28 P18 "
       "P3*5 K20 K3*5 K1*2 P30 P24 P3*6 P1 K1*2 K20*2 | calls_remote+1 "
       "ipis_sent+1 shared_lines_touched+1",
       "I516 T28 P18 M27 P3*5 P34 P3*9 M27 P20 P10 P3*3 M27 P30 P90 P3*23 "
       "P900 C20 C3*5 M27 C30 C90 C0*23 C350 M27 C30 L6 L3*2 L6 L14 P18 P3*5 "
       "M27 K20 M27 S30*2 S20 M27 S3*5 S1*2 T28 P22 P3*6 L5 L3*2 L6 L14 C8 "
       "C3*2 C1 P8 P3*2 P1 P4 X40 P10 | workers_created+1 cds_created+1 "
       "slow_path_entries+2 frank_worker_refills+1 frank_cd_refills+1 "
       "ipis_sent+1 shared_lines_touched+1"},
      {"U20 U0*5 U1*4 T28 K20 K0*5 K1*2 P10 I624 T28 P18 P0*5 K20 K0*5 K1*2 "
       "P1 P24 P0*6 P1 K1*4 | calls_remote+1 ipis_sent+1 "
       "shared_lines_touched+1",
       "I422 T28 P18 P0*5 P34 P0*9 P1 P10 P0*3 P1 C20 C0*5 C1*2 L6 L0*2 L6 "
       "L14 P18 P0*5 K1 M27 S1*2 S20 M27 S0*5 S1*2 T28 P22 P0*6 L5 L0*2 L6 "
       "L14 C8 C0*2 C1 P8 P0*2 P1 P4 X40 P10 | worker_pool_hits+1 "
       "cd_recycles+1 ipis_sent+1 shared_lines_touched+1"});
}

TEST(CallPathGolden, LedgerCallUnboundId) {
  LedgerRig r;
  RegSet regs;
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call(r.cpu0(), *r.client, 77, regs),
              Status::kNoSuchEntryPoint);
  });
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 U18 M27 U3*5 U1*4 |"},
      {"U20 U0*5 U1*4 T28 P34 P0*9 P1 U18 U0*5 U1*4 |"});
}

TEST(CallPathGolden, LedgerCallBlockingUnboundId) {
  LedgerRig r;
  int completions = 0;
  const auto got = cold_and_warm({&r.cpu0()}, [&] {
    RegSet regs;
    set_op(regs, 1);
    EXPECT_EQ(r.ppc.call_blocking(r.cpu0(), *r.client, 77, regs,
                                  [&](Status s, RegSet&) {
                                    EXPECT_EQ(s, Status::kNoSuchEntryPoint);
                                    ++completions;
                                  }),
              Status::kNoSuchEntryPoint);
  });
  EXPECT_EQ(completions, 3);
  expect_ledgers(
      got,
      {"U20 M27 U3*5 M27 U30*4 T28 P34 M27 P3*9 M27 P20 |"},
      {"U20 U0*5 U1*4 T28 P34 P0*9 P1 |"});
}
}  // namespace
}  // namespace hppc::ppc
