// Whole-system chaos: the composed scenario runner. Where chaos_soak_test
// sweeps the host runtime's seams one layer deep, this file (a) exercises
// the failpoints grown past the host runtime — the sim kernel's IPI and
// memory interconnect, the message gateway, the name server — and (b) runs
// the composed storm: overload (per-class watermarks) + hard-kill/rebind
// churn + a randomized fault schedule + cancellation storms, all at once,
// under live multi-slot traffic. The invariants are the sharp ones:
//   - no call ever hangs (every caller carries a deadline);
//   - no call ever returns a status outside the documented failure set;
//   - payloads of successful calls are intact;
//   - ring slots conserve: after the storm every channel takes a whole
//     ring's worth of cells again;
//   - after disarming, the system is fully healthy again.
// Run under TSan in the fault-tsan CI job; a gated Release run lives in the
// fault-injection job.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "common/prng.h"
#include "fault/failpoints.h"
#include "kernel/machine.h"
#include "msg/gateway.h"
#include "msg/msg_facility.h"
#include "naming/name_server.h"
#include "obs/counters.h"
#include "ppc/facility.h"
#include "rt/request_ctx.h"
#include "rt/runtime.h"
#include "sim/memctx.h"

namespace hppc {
namespace {

#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION

// ---------------------------------------------------------------------------
// The seams past the host runtime, each proven injectable in isolation.
// ---------------------------------------------------------------------------

class SeamFaults : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(SeamFaults, KernelIpiDelayStretchesDelivery) {
  kernel::Machine m(sim::hector_config(4));
  kernel::Cpu& sender = m.cpu(0);
  ASSERT_TRUE(fault::arm("kernel.ipi.delay", "always"));
  Cycles arrival = 0;
  m.post_ipi(sender, 3, [&](kernel::Cpu& target) { arrival = target.now(); });
  m.run_until_idle();
  // Delivery pays the base latency plus the injected 10x interconnect stall.
  EXPECT_GE(arrival, 11 * m.config().ipi_latency_cycles);
  EXPECT_GT(fault::injected("kernel.ipi.delay"), 0u);
  EXPECT_GT(sender.counters().get(obs::Counter::kFaultsInjected), 0u);
}

TEST_F(SeamFaults, SimMemRemoteDelayChargesInterconnectStall) {
  const sim::MachineConfig mc = sim::hector_config(8);
  sim::MemContext mem(mc, /*cpu=*/0);  // node 0
  const SimAddr remote = sim::node_base(1) + 64;
  const Cycles base_start = mem.now();
  mem.access_uncached(remote, sim::CostCategory::kPpcKernel);
  const Cycles unfaulted = mem.now() - base_start;

  ASSERT_TRUE(fault::arm("sim.mem.remote_delay", "always"));
  const Cycles t0 = mem.now();
  mem.access_uncached(remote, sim::CostCategory::kPpcKernel);
  EXPECT_EQ(mem.now() - t0, unfaulted + 100 * mc.numa_hop_cycles);
  EXPECT_GT(fault::injected("sim.mem.remote_delay"), 0u);

  // A node-local access never crosses the interconnect: the seam must not
  // fire (and must not charge) even while armed.
  const std::uint64_t injected_before = fault::injected("sim.mem.remote_delay");
  const Cycles t1 = mem.now();
  mem.access_uncached(sim::node_base(0) + 64, sim::CostCategory::kPpcKernel);
  EXPECT_EQ(mem.now() - t1, Cycles{mc.uncached_local_cycles});
  EXPECT_EQ(fault::injected("sim.mem.remote_delay"), injected_before);
}

TEST_F(SeamFaults, NameServerRegisterExhaustedAndLookupMiss) {
  kernel::Machine machine(sim::hector_config(4));
  ppc::PpcFacility ppc(machine);
  naming::NameServer names(ppc);
  auto& as = machine.create_address_space(700, 0);
  kernel::Process& client =
      machine.create_process(700, &as, "client", 0);
  const EntryPointId svc = ppc.bind(
      {}, &as, 700,
      [](ppc::ServerCtx&, ppc::RegSet& regs) { set_rc(regs, Status::kOk); });

  ASSERT_TRUE(fault::arm("naming.register.exhausted", "oneshot"));
  EXPECT_EQ(naming::NameServer::register_name(ppc, machine.cpu(0), client,
                                              "bob", svc),
            Status::kOutOfResources);
  EXPECT_GT(fault::injected("naming.register.exhausted"), 0u);
  // Budget spent: the retry goes through.
  ASSERT_EQ(naming::NameServer::register_name(ppc, machine.cpu(0), client,
                                              "bob", svc),
            Status::kOk);

  // A forced miss on a name that IS bound: models a stale client racing an
  // unregister without touching the table.
  ASSERT_TRUE(fault::arm("naming.lookup.miss", "oneshot"));
  EntryPointId found = 0;
  EXPECT_EQ(
      naming::NameServer::lookup(ppc, machine.cpu(0), client, "bob", &found),
      Status::kNoSuchEntryPoint);
  EXPECT_GT(fault::injected("naming.lookup.miss"), 0u);
  ASSERT_EQ(
      naming::NameServer::lookup(ppc, machine.cpu(0), client, "bob", &found),
      Status::kOk);
  EXPECT_EQ(found, svc);
}

TEST_F(SeamFaults, GatewayRejectSurfacesOverloadedToPpcCaller) {
  kernel::Machine machine(sim::hector_config(8));
  ppc::PpcFacility ppc(machine);
  msg::MsgFacility msgs(machine);
  auto& legacy_as = machine.create_address_space(800, 1);
  kernel::Process& legacy =
      machine.create_process(800, &legacy_as, "legacy", 1);
  msg::PpcMsgGateway gateway(ppc, msgs, legacy.pid(), "legacy-svc");
  std::function<void(Pid, ppc::RegSet&)> loop =
      [&](Pid from, ppc::RegSet& m) {
        kernel::Cpu& scpu = machine.cpu(4);
        ppc::RegSet reply = m;
        reply[0] = m[0] + 1;
        set_rc(reply, Status::kOk);
        msgs.reply(scpu, legacy, from, reply);
        msgs.receive(scpu, legacy, loop);
      };
  legacy.set_body([&](kernel::Cpu& cpu, kernel::Process& self) {
    msgs.receive(cpu, self, loop);
  });
  machine.ready(machine.cpu(4), legacy);
  machine.run_until_idle();

  auto& client_as = machine.create_address_space(100, 0);
  kernel::Process& client =
      machine.create_process(100, &client_as, "client", 0);

  ASSERT_TRUE(fault::arm("msg.gateway.reject", "oneshot"));
  Status rejected = Status::kOk;
  Status retried = Status::kServerError;
  Word result = 0;
  bool issued = false;
  client.set_body([&](kernel::Cpu& cpu, kernel::Process& self) {
    if (issued) return;
    issued = true;
    ppc::RegSet regs;
    regs[0] = 41;
    ppc::set_op(regs, 1);
    // The gateway blocks mid-call when it forwards, so both probes ride
    // call_blocking. The armed refusal completes without ever reaching the
    // legacy server; the retry forwards as if nothing happened.
    ppc.call_blocking(cpu, self, gateway.ep(), regs,
                      [&](Status s, ppc::RegSet&) { rejected = s; });
  });
  machine.ready(machine.cpu(0), client);
  machine.run_until_idle();

  bool retry_issued = false;
  kernel::Process& retry_client =
      machine.create_process(101, &client_as, "retry-client", 0);
  retry_client.set_body([&](kernel::Cpu& cpu, kernel::Process& self) {
    if (retry_issued) return;
    retry_issued = true;
    ppc::RegSet regs;
    regs[0] = 41;
    ppc::set_op(regs, 1);
    ppc.call_blocking(cpu, self, gateway.ep(), regs,
                      [&](Status s, ppc::RegSet& out) {
                        retried = s;
                        result = out[0];
                      });
  });
  machine.ready(machine.cpu(0), retry_client);
  machine.run_until_idle();

  EXPECT_EQ(rejected, Status::kOverloaded);
  EXPECT_EQ(retried, Status::kOk);
  EXPECT_EQ(result, 42u);
  EXPECT_GT(fault::injected("msg.gateway.reject"), 0u);
  EXPECT_EQ(gateway.forwarded(), 1u);
}

// ---------------------------------------------------------------------------
// The composed storm.
// ---------------------------------------------------------------------------

struct ChaosPoint {
  const char* name;
  const char* spec;
};
// The host-runtime schedule the controller re-rolls, plus the cancel-sweep
// seam the storm thread drives on every cancel().
constexpr ChaosPoint kStormSchedule[] = {
    {"rt.xcall.ring_full", "prob=0.2"},
    {"rt.xcall.post", "delay=200"},
    {"rt.xcall.batch.post", "prob=0.3,delay=300"},
    {"rt.xcall.complete.delay", "prob=0.3,delay=2000"},
    {"rt.worker.exhausted", "prob=0.05"},
    {"rt.handler.abort", "prob=0.05"},
    {"rt.call.delay", "prob=0.1,delay=500"},
    {"rt.cancel.sweep", "prob=0.5"},
};

// Slot conservation: every cell ever posted on the (caller, target)
// channel has been retired, so a whole ring's worth of cells, fail-fast,
// completes against the still-polling target. Run from the orchestrating
// thread once the caller threads are joined (their slots are quiescent).
void expect_channel_free(rt::Runtime& rt, rt::SlotId caller,
                         rt::SlotId target, EntryPointId ep) {
  std::array<rt::RegSet, rt::XcallRing::kCapacity> full{};
  rt::CallOptions fail_fast;
  fail_fast.retry = rt::RetryPolicy::kFailFast;
  EXPECT_EQ(rt.call_remote_batch(caller, target, caller, ep, full, fail_fast),
            Status::kOk)
      << "channel " << caller << " -> " << target;
}

bool storm_status_ok(Status s) {
  switch (s) {
    case Status::kOk:
    case Status::kDeadlineExceeded:   // deadline beat a delayed reply
    case Status::kOverloaded:         // shed, or an async post on a full ring
    case Status::kOutOfResources:     // injected pool exhaustion
    case Status::kCallAborted:        // injected abort, cancel, or kill race
    case Status::kNoSuchEntryPoint:   // victim ep between kill and rebind
    case Status::kEntryPointDraining: // victim ep mid-soft-kill
      return true;
    default:
      return false;
  }
}

TEST(WholeSystemChaos, ComposedOverloadKillFaultAndCancellationStorm) {
  rt::Runtime rt(7);
  const auto adder = [](rt::RtCtx&, rt::RegSet& regs) {
    regs[1] = regs[0] + 1;
    ppc::set_rc(regs, Status::kOk);
  };
  const EntryPointId stable = rt.bind({.name = "storm-stable"}, 0, adder);
  std::atomic<EntryPointId> victim{rt.bind({.name = "storm-victim"}, 0, adder)};

  // Per-class overload posture for the whole storm: bulk sheds shallow,
  // interactive rides a deep queue.
  rt.set_shed_watermark(rt::TrafficClass::kBulk, 4);
  rt.set_shed_watermark(rt::TrafficClass::kInteractive, 48);

  // Two busy-polling servers (slots 0 and 1) keep the ring seams hot.
  std::atomic<bool> stop_servers{false};
  std::atomic<int> servers_up{0};
  std::vector<std::thread> servers;
  for (int i = 0; i < 2; ++i) {
    servers.emplace_back([&] {
      const rt::SlotId s = rt.register_thread();
      servers_up.fetch_add(1, std::memory_order_release);
      while (!stop_servers.load(std::memory_order_acquire)) {
        if (rt.poll(s) == 0) std::this_thread::yield();
      }
      while (rt.poll(s) > 0) {
      }
      rt.enter_idle(s);
    });
  }
  while (servers_up.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }
  const rt::SlotId me = rt.register_thread();  // slot 2: orchestrator

  for (const ChaosPoint& p : kStormSchedule) {
    ASSERT_TRUE(fault::arm(p.name, p.spec)) << p.name;
  }

  // Fault-schedule controller: re-rolls the armed set. Seeded, replayable.
  std::atomic<bool> stop_chaos{false};
  std::thread chaos([&] {
    Prng rng(0x57082ULL);
    while (!stop_chaos.load(std::memory_order_acquire)) {
      for (const ChaosPoint& p : kStormSchedule) {
        if (rng.below(2) == 0) {
          EXPECT_TRUE(fault::arm(p.name, p.spec)) << p.name;
        } else {
          fault::disarm(p.name);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  // Cancellation storm: a rolling shared token. Callers attach the current
  // token to a slice of their traffic; the storm cancels it (sweeping the
  // rings via the cancel() steal-drain protocol) and mints a successor.
  std::atomic<rt::CancelToken> storm_token{rt.cancel_token_create()};
  std::atomic<bool> stop_cancel{false};
  std::thread canceller([&] {
    while (!stop_cancel.load(std::memory_order_acquire)) {
      const rt::CancelToken t = storm_token.load(std::memory_order_acquire);
      storm_token.store(rt.cancel_token_create(), std::memory_order_release);
      rt.cancel(t);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Kill/rebind churn: the victim service dies hard mid-traffic and is
  // reborn under a fresh id. Callers racing the gap see only the
  // documented kill statuses. Entry-point ids are never reused, so the
  // churn is bounded by a count, not by how long the callers take: a
  // loaded host stretches the storm, never the number of ids it burns.
  constexpr int kKillRounds = 256;
  std::atomic<bool> stop_kill{false};
  std::thread killer([&] {
    for (int k = 0;
         k < kKillRounds && !stop_kill.load(std::memory_order_acquire); ++k) {
      const EntryPointId old = victim.load(std::memory_order_acquire);
      const Status ks = rt.hard_kill(old);
      EXPECT_TRUE(ks == Status::kOk || ks == Status::kNoSuchEntryPoint)
          << static_cast<int>(ks);
      victim.store(rt.bind({.name = "storm-victim"}, 0, adder),
                   std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::microseconds(800));
    }
  });

  std::atomic<int> bad_status{0};
  std::atomic<int> bad_payload{0};
  constexpr int kCallers = 3;
  constexpr Word kCallsEach = 300;
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const rt::SlotId my = rt.register_thread();
      rt.trace_begin(my);
      for (Word i = 0; i < kCallsEach; ++i) {
        rt::CallOptions opts;
        // Generous, but bounded: it also bounds a full-ring retry.
        opts.deadline_cycles = 50'000'000;
        // Mixed-class traffic: odd iterations ride the bulk lane.
        if (i % 2 == 1) opts.traffic_class = rt::TrafficClass::kBulk;
        // A slice of every caller's traffic joins the cancellation storm.
        if (i % 8 == static_cast<Word>(c)) {
          opts.cancel_token = storm_token.load(std::memory_order_acquire);
        }
        const rt::SlotId tgt = (i + static_cast<Word>(c)) % 2;
        const EntryPointId ep =
            (i % 4 == 3) ? victim.load(std::memory_order_acquire) : stable;
        rt::RegSet r{};
        r[0] = i;
        const Status s = rt.call_remote(my, tgt, my, ep, r, opts);
        if (!storm_status_ok(s)) bad_status.fetch_add(1);
        if (s == Status::kOk && r[1] != i + 1) bad_payload.fetch_add(1);
        if (i % 16 == 0) {
          std::array<rt::RegSet, 4> b{};
          for (Word k = 0; k < b.size(); ++k) b[k][0] = i + k;
          const Status bs = rt.call_remote_batch(
              my, tgt, my, stable, std::span<rt::RegSet>(b), opts);
          if (!storm_status_ok(bs)) bad_status.fetch_add(1);
          for (Word k = 0; k < b.size(); ++k) {
            const Status cs = ppc::rc_of(b[k]);
            if (!storm_status_ok(cs)) bad_status.fetch_add(1);
            if (cs == Status::kOk && b[k][1] != i + k + 1) {
              bad_payload.fetch_add(1);
            }
          }
        }
        if (i % 32 == static_cast<Word>(c)) {
          const Status as = rt.call_remote_async(my, tgt, my, stable, r, opts);
          if (as != Status::kOk && !storm_status_ok(as)) bad_status.fetch_add(1);
        }
      }
      rt.trace_end(my);
    });
  }
  for (auto& t : callers) t.join();

  stop_kill.store(true, std::memory_order_release);
  stop_cancel.store(true, std::memory_order_release);
  stop_chaos.store(true, std::memory_order_release);
  killer.join();
  canceller.join();
  chaos.join();
  fault::disarm_all();

  // Deterministic per-class overload probe, post-storm: park a held slot so
  // depth is controlled, then show bulk sheds at depth 1 while interactive
  // still flows (the storm's own sheds are load-dependent; this is not).
  {
    std::atomic<bool> held_up{false};
    std::atomic<bool> held_release{false};
    std::thread held([&] {
      const rt::SlotId s = rt.register_thread();  // slot 6
      held_up.store(true, std::memory_order_release);
      while (!held_release.load(std::memory_order_acquire)) {
        std::this_thread::yield();  // holds the gate, never polls
      }
      while (rt.poll(s) > 0) {
      }
      rt.enter_idle(s);
    });
    while (!held_up.load(std::memory_order_acquire)) std::this_thread::yield();
    rt.set_shed_watermark(rt::TrafficClass::kBulk, 1);
    rt::RegSet r{};
    ASSERT_EQ(rt.call_remote_async(me, 6, me, stable, r), Status::kOk);
    ASSERT_GE(rt.xcall_depth(6), 1u);
    rt::CallOptions bulk;
    bulk.traffic_class = rt::TrafficClass::kBulk;
    EXPECT_EQ(rt.call_remote_async(me, 6, me, stable, r, bulk),
              Status::kOverloaded);
    EXPECT_EQ(rt.call_remote_async(me, 6, me, stable, r), Status::kOk);
    held_release.store(true, std::memory_order_release);
    held.join();
    rt.set_shed_watermark(rt::TrafficClass::kBulk, 4);
  }

  // Deterministic cancellation invariant, post-storm.
  {
    const rt::CancelToken t = rt.cancel_token_create();
    rt.cancel(t);
    rt::CallOptions opts;
    opts.cancel_token = t;
    rt::RegSet r{};
    EXPECT_EQ(rt.call_remote(me, 0, me, stable, r, opts),
              Status::kCallAborted);
  }

  // Quiesce: with every seam disarmed the system must be fully healthy.
  for (Word i = 0; i < 16; ++i) {
    rt::RegSet r{};
    r[0] = i;
    ASSERT_EQ(rt.call_remote(me, i % 2, me, stable, r), Status::kOk);
    ASSERT_EQ(r[1], i + 1);
  }
  for (rt::SlotId c = me; c < me + 1 + kCallers; ++c) {
    for (rt::SlotId t = 0; t < 2; ++t) expect_channel_free(rt, c, t, stable);
  }
  stop_servers.store(true, std::memory_order_release);
  for (auto& t : servers) t.join();

  EXPECT_EQ(bad_status.load(), 0);
  EXPECT_EQ(bad_payload.load(), 0);
  const obs::CounterSnapshot total = rt.snapshot();
  EXPECT_GT(total.get(obs::Counter::kFaultsInjected), 0u);
  EXPECT_GT(total.get(obs::Counter::kCancelRequests), 0u);
  EXPECT_GT(total.get(obs::Counter::kCallsCancelled), 0u);
  EXPECT_GT(total.get(obs::Counter::kCallsBulk), 0u);
  EXPECT_GT(total.get(obs::Counter::kCallsShedBulk), 0u);
  EXPECT_GT(fault::injected("rt.cancel.sweep"), 0u);
}

#else

TEST(WholeSystemChaos, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "build with -DHPPC_FAULT_INJECTION=ON to run the storm";
}

#endif  // HPPC_FAULT_INJECTION

}  // namespace
}  // namespace hppc
