// The failpoint framework itself (spec parsing, triggers, registry), then
// the compiled-in sites: armed failpoints must surface at the runtime's
// seams as the documented Status codes and counters, and a disarmed build
// must behave as if the framework did not exist.
#include "fault/failpoints.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "kernel/machine.h"
#include "obs/counters.h"
#include "ppc/facility.h"
#include "ppc/regs.h"
#include "rt/runtime.h"

namespace hppc {
namespace {

// Every test arms points in the process-wide registry; clean up so tests
// compose in one binary regardless of order.
class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(FailPointTest, DisarmedPointNeverFires) {
  fault::FailPoint& p = fault::registry().point("test.disarmed");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(p.check());
  EXPECT_EQ(p.injected(), 0u);
}

TEST_F(FailPointTest, AlwaysFiresEveryTime) {
  fault::FailPoint& p = fault::registry().point("test.always");
  ASSERT_TRUE(p.arm("always"));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(p.check());
  EXPECT_EQ(p.injected(), 10u);
  p.disarm();
  EXPECT_FALSE(p.check());
}

TEST_F(FailPointTest, OneshotFiresExactlyOnceThenDisarms) {
  fault::FailPoint& p = fault::registry().point("test.oneshot");
  ASSERT_TRUE(p.arm("oneshot"));
  EXPECT_TRUE(p.check());
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(p.check());
  EXPECT_EQ(p.injected(), 1u);
  EXPECT_FALSE(p.armed());  // budget spent -> self-disarmed
}

TEST_F(FailPointTest, CountBudgetIsExact) {
  fault::FailPoint& p = fault::registry().point("test.count");
  ASSERT_TRUE(p.arm("count=3"));
  int fired = 0;
  for (int i = 0; i < 20; ++i) fired += p.check() ? 1 : 0;
  EXPECT_EQ(fired, 3);
}

TEST_F(FailPointTest, SkipDefersTheTrigger) {
  fault::FailPoint& p = fault::registry().point("test.skip");
  ASSERT_TRUE(p.arm("count=2,skip=5"));
  int fired_early = 0;
  for (int i = 0; i < 5; ++i) fired_early += p.check() ? 1 : 0;
  EXPECT_EQ(fired_early, 0);  // the skip window passes untouched
  EXPECT_TRUE(p.check());
  EXPECT_TRUE(p.check());
  EXPECT_FALSE(p.check());
}

TEST_F(FailPointTest, ProbabilityZeroAndOne) {
  fault::FailPoint& never = fault::registry().point("test.prob0");
  ASSERT_TRUE(never.arm("prob=0.0"));
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(never.check());

  fault::FailPoint& coin = fault::registry().point("test.prob");
  ASSERT_TRUE(coin.arm("prob=0.5"));
  int fired = 0;
  for (int i = 0; i < 2000; ++i) fired += coin.check() ? 1 : 0;
  // Deterministic splitmix64 stream: comfortably inside [600, 1400].
  EXPECT_GT(fired, 600);
  EXPECT_LT(fired, 1400);
}

TEST_F(FailPointTest, BareDelaySpecFiresAlways) {
  fault::FailPoint& p = fault::registry().point("test.delay");
  ASSERT_TRUE(p.arm("delay=64"));
  EXPECT_TRUE(p.check());  // the spin happened inside check()
  EXPECT_EQ(p.injected(), 1u);
}

TEST_F(FailPointTest, MalformedSpecsRejectedAndLeaveDisarmed) {
  fault::FailPoint& p = fault::registry().point("test.malformed");
  EXPECT_FALSE(p.arm(""));
  EXPECT_FALSE(p.arm("bogus"));
  EXPECT_FALSE(p.arm("count=abc"));
  EXPECT_FALSE(p.arm("prob=1.5"));
  EXPECT_FALSE(p.arm("skip=3"));  // modifier without a trigger
  EXPECT_FALSE(p.armed());
}

TEST_F(FailPointTest, RegistryHandsOutStableReferences) {
  fault::FailPoint& a = fault::registry().point("test.stable");
  fault::FailPoint& b = fault::registry().point("test.stable");
  EXPECT_EQ(&a, &b);
}

TEST_F(FailPointTest, SpecListParsesLikeTheEnvVariable) {
  EXPECT_EQ(fault::registry().arm_from_spec_list(
                "test.list.a=oneshot;test.list.b=prob=0.25,delay=100"),
            2);
  EXPECT_TRUE(fault::registry().point("test.list.a").armed());
  EXPECT_TRUE(fault::registry().point("test.list.b").armed());
  EXPECT_EQ(fault::registry().arm_from_spec_list("no-equals-sign"), -1);
  EXPECT_EQ(fault::registry().arm_from_spec_list("test.list.c=garbage"), -1);
}

TEST_F(FailPointTest, ConcurrentCountBudgetNeverOverfires) {
  fault::FailPoint& p = fault::registry().point("test.mt.count");
  ASSERT_TRUE(p.arm("count=100"));
  std::atomic<int> fired{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (p.check()) fired.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(fired.load(), 100);
}

#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION

// ---------------------------------------------------------------------------
// Compiled-in sites: the runtime seams (only meaningful in a fault build).
// ---------------------------------------------------------------------------

rt::RegSet make_regs(Word w0) {
  rt::RegSet r{};
  r[0] = w0;
  return r;
}

EntryPointId bind_adder(rt::Runtime& rt) {
  return rt.bind({.name = "adder"}, 0, [](rt::RtCtx&, rt::RegSet& regs) {
    regs[1] = regs[0] + 1;
    ppc::set_rc(regs, Status::kOk);
  });
}

TEST_F(FailPointTest, WorkerExhaustionSurfacesAsOutOfResources) {
  rt::Runtime rt(1);
  const rt::SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  ASSERT_TRUE(fault::arm("rt.worker.exhausted", "oneshot"));
  rt::RegSet r = make_regs(1);
  EXPECT_EQ(rt.call(me, 1, ep, r), Status::kOutOfResources);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kFaultsInjected), 1u);
  // The oneshot spent itself: the very next call succeeds.
  r = make_regs(1);
  EXPECT_EQ(rt.call(me, 1, ep, r), Status::kOk);
  EXPECT_EQ(r[1], 2u);
}

TEST_F(FailPointTest, HandlerAbortReleasesResourcesAndReportsAborted) {
  rt::Runtime rt(1);
  const rt::SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  rt::RegSet r = make_regs(1);
  ASSERT_EQ(rt.call(me, 1, ep, r), Status::kOk);  // warm the pools
  ASSERT_TRUE(fault::arm("rt.handler.abort", "oneshot"));
  r = make_regs(1);
  EXPECT_EQ(rt.call(me, 1, ep, r), Status::kCallAborted);
  // The worker and CD went back to their pools despite the abort.
  EXPECT_EQ(rt.pooled_workers(me, ep), 1u);
  r = make_regs(5);
  EXPECT_EQ(rt.call(me, 1, ep, r), Status::kOk);
  EXPECT_EQ(r[1], 6u);
}

TEST_F(FailPointTest, ForcedRingFullStillCompletesUnderBlockPolicy) {
  rt::Runtime rt(2);
  const rt::SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const rt::SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();
  ASSERT_TRUE(fault::arm("rt.xcall.ring_full", "oneshot"));
  rt::RegSet r = make_regs(7);
  EXPECT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
  EXPECT_EQ(r[1], 8u);
  // The forced overflow was booked exactly like a real one.
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallRingFull), 1u);
  EXPECT_GE(rt.counters(me).get(obs::Counter::kFaultsInjected), 1u);
  stop.store(true, std::memory_order_release);
  owner.join();
}

TEST_F(FailPointTest, SimFacilityFrankExhaustionUnwindsCleanly) {
  kernel::Machine machine(sim::hector_config(1));
  ppc::PpcFacility ppc(machine);
  auto& as = machine.create_address_space(700, 0);
  const EntryPointId ep = ppc.bind(
      {}, &as, 700,
      [](ppc::ServerCtx&, ppc::RegSet& regs) { set_rc(regs, Status::kOk); });
  auto& cas = machine.create_address_space(100, 0);
  kernel::Process& client = machine.create_process(100, &cas, "client", 0);

  ppc::RegSet regs;
  set_op(regs, 1);
  ASSERT_EQ(ppc.call(machine.cpu(0), client, ep, regs), Status::kOk);

  ASSERT_TRUE(fault::arm("ppc.call.frank_exhausted", "oneshot"));
  set_op(regs, 1);
  EXPECT_EQ(ppc.call(machine.cpu(0), client, ep, regs),
            Status::kOutOfResources);
  EXPECT_EQ(machine.cpu(0).counters().get(obs::Counter::kFaultsInjected), 1u);
  // Clean unwind: the same client can call again immediately.
  set_op(regs, 1);
  EXPECT_EQ(ppc.call(machine.cpu(0), client, ep, regs), Status::kOk);
}

#endif  // HPPC_FAULT_INJECTION

}  // namespace
}  // namespace hppc
