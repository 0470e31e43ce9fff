// Failure injection under live traffic: services are killed while clients
// are mid-loop; clients observe clean failures, never corruption, and the
// machine quiesces with all invariants intact.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "fault/failpoints.h"
#include "kernel/machine.h"
#include "ppc/facility.h"
#include "rt/runtime.h"

namespace hppc {
namespace {

using kernel::Cpu;
using kernel::Machine;
using kernel::Process;
using ppc::PpcFacility;
using ppc::RegSet;

TEST(KillUnderTraffic, SoftKillDrainsCleanly) {
  Machine machine(sim::hector_config(8));
  PpcFacility ppc(machine);
  auto& as = machine.create_address_space(700, 0);
  const EntryPointId ep = ppc.bind(
      {}, &as, 700,
      [](ppc::ServerCtx&, RegSet& regs) { set_rc(regs, Status::kOk); });

  std::vector<std::uint64_t> ok(8, 0), failed(8, 0);
  std::vector<Process*> clients;
  const Cycles kill_at = machine.config().cycles_from_us(400.0);
  bool killed = false;

  for (CpuId c = 0; c < 8; ++c) {
    auto& cas = machine.create_address_space(100 + c,
                                             machine.config().node_of_cpu(c));
    Process& client = machine.create_process(
        100 + c, &cas, "client", machine.config().node_of_cpu(c));
    clients.push_back(&client);
    client.set_body([&, c](Cpu& cpu, Process& self) {
      if (cpu.now() >= 4 * kill_at) return;  // bounded run
      if (c == 0 && !killed && cpu.now() >= kill_at) {
        killed = true;
        EXPECT_EQ(ppc.soft_kill(cpu, ep), Status::kOk);
      }
      RegSet regs;
      set_op(regs, 1);
      const Status s = ppc.call(cpu, self, ep, regs);
      if (s == Status::kOk) {
        ++ok[c];
      } else {
        // After the kill clients see a clean error, nothing else.
        EXPECT_TRUE(s == Status::kEntryPointDraining ||
                    s == Status::kNoSuchEntryPoint);
        ++failed[c];
      }
      machine.ready(cpu, self);
    });
    machine.ready(machine.cpu(c), client);
  }
  machine.run_until_idle();

  std::uint64_t total_ok = 0, total_failed = 0;
  for (CpuId c = 0; c < 8; ++c) {
    total_ok += ok[c];
    total_failed += failed[c];
    EXPECT_GT(ok[c], 0u) << "cpu " << c;       // everyone succeeded first
    EXPECT_GT(failed[c], 0u) << "cpu " << c;   // and saw the kill
  }
  EXPECT_GT(total_ok, 0u);
  EXPECT_GT(total_failed, 0u);
  EXPECT_EQ(ppc.entry_point(ep)->state(), ppc::EpState::kDead);
  EXPECT_EQ(ppc.entry_point(ep)->total_in_progress(), 0u);
}

TEST(KillUnderTraffic, HardKillThenRebindSameTraffic) {
  Machine machine(sim::hector_config(4));
  PpcFacility ppc(machine);
  auto& as = machine.create_address_space(700, 0);
  auto bind_version = [&](Word version) {
    return ppc.bind({}, &as, 700, [version](ppc::ServerCtx&, RegSet& regs) {
      regs[0] = version;
      set_rc(regs, Status::kOk);
    });
  };
  const EntryPointId v1 = bind_version(1);

  // Warm all CPUs against v1.
  std::vector<Process*> clients;
  RegSet regs;
  for (CpuId c = 0; c < 4; ++c) {
    auto& cas = machine.create_address_space(100 + c,
                                             machine.config().node_of_cpu(c));
    clients.push_back(&machine.create_process(
        100 + c, &cas, "client", machine.config().node_of_cpu(c)));
    set_op(regs, 1);
    ASSERT_EQ(ppc.call(machine.cpu(c), *clients[c], v1, regs), Status::kOk);
    ASSERT_EQ(regs[0], 1u);
  }

  ASSERT_EQ(ppc.hard_kill(machine.cpu(0), v1), Status::kOk);
  machine.run_until_idle();

  // Rebind (may reuse the slot id); the new service answers on every CPU
  // and fresh workers are created (old ones were reclaimed).
  const EntryPointId v2 = bind_version(2);
  for (CpuId c = 0; c < 4; ++c) {
    set_op(regs, 1);
    ASSERT_EQ(ppc.call(machine.cpu(c), *clients[c], v2, regs), Status::kOk);
    EXPECT_EQ(regs[0], 2u);
  }
  EXPECT_EQ(ppc.entry_point(v2)->total_workers_created(), 4u);
}

TEST(KillUnderTraffic, ExchangeUnderLoadSwitchesVersionsAtomically) {
  Machine machine(sim::hector_config(4));
  PpcFacility ppc(machine);
  auto& as = machine.create_address_space(700, 0);
  const EntryPointId ep =
      ppc.bind({}, &as, 700, [](ppc::ServerCtx&, RegSet& regs) {
        regs[0] = 1;
        set_rc(regs, Status::kOk);
      });

  std::vector<Word> seen;
  auto& cas = machine.create_address_space(100, 0);
  Process& client = machine.create_process(100, &cas, "c", 0);
  const Cycles swap_at = machine.config().cycles_from_us(300.0);
  bool swapped = false;
  client.set_body([&](Cpu& cpu, Process& self) {
    if (cpu.now() >= 3 * swap_at) return;
    if (!swapped && cpu.now() >= swap_at) {
      swapped = true;
      ASSERT_EQ(ppc.exchange(cpu, ep,
                             [](ppc::ServerCtx&, RegSet& r) {
                               r[0] = 2;
                               set_rc(r, Status::kOk);
                             }),
                Status::kOk);
    }
    RegSet regs;
    set_op(regs, 1);
    ASSERT_EQ(ppc.call(cpu, self, ep, regs), Status::kOk);
    seen.push_back(regs[0]);
    machine.ready(cpu, self);
  });
  machine.ready(machine.cpu(0), client);
  machine.run_until_idle();

  // Monotone version sequence: 1...1 2...2, never interleaved.
  ASSERT_GT(seen.size(), 2u);
  EXPECT_EQ(seen.front(), 1u);
  EXPECT_EQ(seen.back(), 2u);
  bool crossed = false;
  for (Word v : seen) {
    if (v == 2) crossed = true;
    if (crossed) {
      EXPECT_EQ(v, 2u);
    }
  }
}

// ---------------------------------------------------------------------------
// Host runtime: hard kill racing call_remote
// ---------------------------------------------------------------------------

// A hard kill racing a cross-slot call that was already admitted (its cell
// parked in the target ring, pre-screen passed) must resolve to exactly
// kCallAborted or kOk — never a hang, never a stale execution against dead
// service state. In fault-injection builds the completion-delay failpoint
// stretches the execute→complete window, so the kill also races the reply
// publish, not just the drain.
TEST(KillUnderTraffic, RtHardKillRacingCallRemoteAbortsOrCompletes) {
#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
  ASSERT_TRUE(fault::arm("rt.xcall.complete.delay", "prob=0.5,delay=20000"));
#endif
  int aborted = 0, completed = 0;
  for (int iter = 0; iter < 12; ++iter) {
    rt::Runtime rt(3);
    const rt::SlotId me = rt.register_thread();
    ASSERT_EQ(me, 0u);
    const EntryPointId ep =
        rt.bind({.name = "victim"}, 0, [](rt::RtCtx&, rt::RegSet& regs) {
          regs[1] = regs[0] + 1;
          ppc::set_rc(regs, Status::kOk);
        });

    // The target's owner holds its gate but drains only when told to, so
    // the caller's cell provably parks before the kill lands.
    std::atomic<bool> drain{false};
    std::atomic<bool> owner_up{false};
    std::atomic<Status> result{Status::kInvalidArgument};
    std::thread owner([&] {
      const rt::SlotId s = rt.register_thread();
      owner_up.store(true, std::memory_order_release);
      while (!drain.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      // Keep polling until the caller resolved: a kill that wins leaves
      // the cell for a later poll to refuse.
      while (result.load(std::memory_order_acquire) ==
             Status::kInvalidArgument) {
        rt.poll(s);
        std::this_thread::yield();
      }
    });
    while (!owner_up.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::thread caller([&] {
      const rt::SlotId s = rt.register_thread();
      EXPECT_EQ(s, 2u);
      rt::RegSet r{};
      r[0] = 7;
      const Status st = rt.call_remote(s, 1, /*caller=*/2, ep, r);
      if (st == Status::kOk) {
        EXPECT_EQ(r[1], 8u);
      }
      result.store(st, std::memory_order_release);
    });

    // Admitted: the caller books its post after publishing the cell.
    while (rt.counters(2).get(obs::Counter::kXcallPosts) == 0) {
      std::this_thread::yield();
    }
    // Release the drain and kill concurrently: on some iterations the
    // drain wins (kOk), on others the kill does (kCallAborted).
    drain.store(true, std::memory_order_release);
    if (iter % 2 == 0) std::this_thread::yield();
    ASSERT_EQ(rt.hard_kill(ep), Status::kOk);

    caller.join();
    owner.join();
    const Status st = result.load(std::memory_order_acquire);
    ASSERT_TRUE(st == Status::kOk || st == Status::kCallAborted)
        << "iter " << iter << ": " << to_string(st);
    (st == Status::kOk ? completed : aborted)++;
  }
#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
  fault::disarm("rt.xcall.complete.delay");
#endif
  // Twelve races must produce at least one resolution of some kind; both
  // outcomes are legal, a hang is the only failure (and shows up as a
  // test timeout).
  EXPECT_EQ(aborted + completed, 12);
}

}  // namespace
}  // namespace hppc
