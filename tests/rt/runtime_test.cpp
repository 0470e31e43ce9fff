// Host runtime: PPC-pattern semantics on real threads.
#include "rt/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/heap_audit.h"

namespace hppc::rt {
namespace {

using ppc::RegSet;
using ppc::set_op;
using ppc::set_rc;

TEST(RtRuntime, BasicCallRoundTrip) {
  Runtime rt(2);
  const SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind({}, 700, [](RtCtx&, RegSet& regs) {
    for (std::size_t i = 0; i + 1 < kPpcWords; ++i) regs[i] += 1;
    set_rc(regs, Status::kOk);
  });
  RegSet regs;
  for (std::size_t i = 0; i + 1 < kPpcWords; ++i) regs[i] = 100 + i;
  set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  for (std::size_t i = 0; i + 1 < kPpcWords; ++i) EXPECT_EQ(regs[i], 101 + i);
}

TEST(RtRuntime, ThreeSlotRuntimeReservesAtMostQuarterMiB) {
  // A runtime maps what it places: three slots' rings and histogram
  // blocks, plus the CD and stack a first call pools, fit in 256 KiB of
  // 4 KiB-page chunks. Where MAP_HUGETLB works a chunk is whole hugepages
  // instead, so only the hugepage accounting is checked there.
  Runtime rt(3);
  const SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind({}, 700, [](RtCtx&, RegSet& regs) {
    set_rc(regs, Status::kOk);
  });
  RegSet regs;
  set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  const mem::ArenaStats a = rt.arena_stats();
  EXPECT_EQ(a.node_mismatches, 0u);
  if (a.hugepages == 0) {
    EXPECT_LE(a.bytes_reserved, 256u << 10);
    EXPECT_EQ(a.hugepage_fallbacks, a.chunks);
  } else {
    EXPECT_EQ(a.bytes_reserved, a.hugepage_bytes);
  }
}

TEST(RtRuntime, UnknownEntryPoint) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  RegSet regs;
  EXPECT_EQ(rt.call(slot, 1, 999, regs), Status::kNoSuchEntryPoint);
}

TEST(RtRuntime, CallerProgramVisible) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  ProgramId seen = 0;
  const EntryPointId ep = rt.bind({}, 700, [&](RtCtx& ctx, RegSet& regs) {
    seen = ctx.caller_program();
    set_rc(regs, Status::kOk);
  });
  RegSet regs;
  rt.call(slot, 42, ep, regs);
  EXPECT_EQ(seen, 42u);
}

TEST(RtRuntime, WorkerPooledAfterCall) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {}, 700, [](RtCtx&, RegSet& regs) { set_rc(regs, Status::kOk); });
  RegSet regs;
  rt.call(slot, 1, ep, regs);
  EXPECT_EQ(rt.pooled_workers(slot, ep), 1u);
  EXPECT_EQ(rt.counters(slot).get(obs::Counter::kWorkersCreated), 1u);
  for (int i = 0; i < 10; ++i) rt.call(slot, 1, ep, regs);
  // reused
  EXPECT_EQ(rt.counters(slot).get(obs::Counter::kWorkersCreated), 1u);
}

TEST(RtRuntime, StackBufferProvidedAndRecycled) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  std::byte* seen_a = nullptr;
  std::byte* seen_b = nullptr;
  const EntryPointId a = rt.bind({}, 700, [&](RtCtx& ctx, RegSet& regs) {
    seen_a = ctx.stack().data();
    ctx.stack()[0] = std::byte{42};
    set_rc(regs, Status::kOk);
  });
  const EntryPointId b = rt.bind({}, 701, [&](RtCtx& ctx, RegSet& regs) {
    seen_b = ctx.stack().data();
    set_rc(regs, Status::kOk);
  });
  RegSet regs;
  rt.call(slot, 1, a, regs);
  rt.call(slot, 1, b, regs);
  ASSERT_NE(seen_a, nullptr);
  // Serial stack sharing (§2): the second service reused the first's stack.
  EXPECT_EQ(seen_a, seen_b);
  EXPECT_EQ(rt.counters(slot).get(obs::Counter::kCdsCreated), 1u);
}

TEST(RtRuntime, HoldCdKeepsPrivateStack) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  RtServiceConfig hold;
  hold.hold_cd = true;
  std::byte* hold_stack = nullptr;
  const EntryPointId h = rt.bind(hold, 700, [&](RtCtx& ctx, RegSet& regs) {
    hold_stack = ctx.stack().data();
    set_rc(regs, Status::kOk);
  });
  std::byte* shared_stack = nullptr;
  const EntryPointId s = rt.bind({}, 701, [&](RtCtx& ctx, RegSet& regs) {
    shared_stack = ctx.stack().data();
    set_rc(regs, Status::kOk);
  });
  RegSet regs;
  rt.call(slot, 1, h, regs);
  rt.call(slot, 1, s, regs);
  rt.call(slot, 1, h, regs);
  EXPECT_NE(hold_stack, shared_stack);  // held stack never shared
}

TEST(RtRuntime, WorkerInitProtocol) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  int init_runs = 0, main_runs = 0;
  RtHandler main_handler = [&](RtCtx&, RegSet& regs) {
    ++main_runs;
    set_rc(regs, Status::kOk);
  };
  const EntryPointId ep =
      rt.bind({}, 700, [&, main_handler](RtCtx& ctx, RegSet& regs) {
        ++init_runs;
        ctx.set_worker_handler(main_handler);
        main_handler(ctx, regs);
      });
  RegSet regs;
  for (int i = 0; i < 5; ++i) rt.call(slot, 1, ep, regs);
  EXPECT_EQ(init_runs, 1);
  EXPECT_EQ(main_runs, 5);
}

TEST(RtRuntime, NestedCalls) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  const EntryPointId inner = rt.bind({}, 700, [](RtCtx&, RegSet& regs) {
    regs[0] *= 2;
    set_rc(regs, Status::kOk);
  });
  const EntryPointId outer =
      rt.bind({}, 701, [inner](RtCtx& ctx, RegSet& regs) {
        RegSet nested;
        nested[0] = regs[0];
        set_op(nested, 1);
        set_rc(regs, ctx.call(inner, nested));
        regs[1] = nested[0];
      });
  RegSet regs;
  regs[0] = 21;
  set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, outer, regs), Status::kOk);
  EXPECT_EQ(regs[1], 42u);
}

TEST(RtRuntime, AsyncDeferredUntilPoll) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  int served = 0;
  const EntryPointId ep = rt.bind({}, 700, [&](RtCtx&, RegSet& regs) {
    ++served;
    set_rc(regs, Status::kOk);
  });
  RegSet regs;
  set_op(regs, 1);
  ASSERT_EQ(rt.call_async(slot, 1, ep, regs), Status::kOk);
  EXPECT_EQ(served, 0);
  EXPECT_EQ(rt.poll(slot), 1u);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(rt.counters(slot).get(obs::Counter::kCallsAsync), 1u);
}

TEST(RtRuntime, SoftKillRejectsNewCalls) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {}, 700, [](RtCtx&, RegSet& regs) { set_rc(regs, Status::kOk); });
  RegSet regs;
  set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  ASSERT_EQ(rt.soft_kill(ep), Status::kOk);
  set_op(regs, 1);
  EXPECT_EQ(rt.call(slot, 1, ep, regs), Status::kEntryPointDraining);
}

TEST(RtRuntime, HardKillReclaimsPooledResourcesAtTheOwnersPoll) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  RtServiceConfig hold;
  hold.hold_cd = true;
  const EntryPointId ep = rt.bind(
      hold, 700, [](RtCtx&, RegSet& regs) { set_rc(regs, Status::kOk); });
  RegSet regs;
  set_op(regs, 1);
  rt.call(slot, 1, ep, regs);
  EXPECT_EQ(rt.pooled_workers(slot, ep), 1u);

  // The kill and the reclaim it triggers allocate nothing: the kill bumps
  // a word per slot, and the poll sweeps the slot's own pools.
  const std::uint64_t heap0 = heap_allocs();
  const Status killed = rt.hard_kill(ep);
  const std::size_t pooled_after_kill = rt.pooled_workers(slot, ep);
  const std::size_t reclaimed = rt.poll(slot);
  const std::uint64_t heap = heap_allocs() - heap0;
  ASSERT_EQ(killed, Status::kOk);
  // The reclamation runs when the owning slot polls, not before.
  EXPECT_EQ(pooled_after_kill, 1u);
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(rt.pooled_workers(slot, ep), 0u);
  EXPECT_EQ(rt.counters(slot).get(obs::Counter::kWorkersReclaimed), 1u);
  EXPECT_EQ(heap, 0u);
  set_op(regs, 1);
  EXPECT_EQ(rt.call(slot, 1, ep, regs), Status::kNoSuchEntryPoint);
  EXPECT_EQ(rt.hard_kill(ep), Status::kNoSuchEntryPoint);
  // The next poll finds the reclaim word unchanged: nothing to sweep.
  EXPECT_EQ(rt.poll(slot), 0u);
}

TEST(RtRuntime, AsyncThatRepostsItselfLetsPollReturn) {
  // A handler that re-posts an async call to its own slot keeps that
  // slot's own ring non-empty forever; poll() still returns, because a
  // drain stops after one lap of the ring.
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  std::uint64_t served = 0;
  EntryPointId ep = kInvalidEntryPoint;
  ep = rt.bind({}, 700, [&](RtCtx& ctx, RegSet& regs) {
    ++served;
    RegSet again;
    set_op(again, 1);
    EXPECT_EQ(ctx.runtime().call_async(ctx.slot(), 1, ep, again),
              Status::kOk);
    set_rc(regs, Status::kOk);
  });
  RegSet regs;
  set_op(regs, 1);
  ASSERT_EQ(rt.call_async(slot, 1, ep, regs), Status::kOk);
  const std::size_t first = rt.poll(slot);
  EXPECT_GE(first, 1u);
  EXPECT_LE(first, 2 * XcallRing::kCapacity);  // a mask pass + a full scan
  EXPECT_EQ(served, first);
  // The chain is still live: the next poll keeps running it.
  const std::size_t second = rt.poll(slot);
  EXPECT_GE(second, 1u);
  EXPECT_LE(second, 2 * XcallRing::kCapacity);
  EXPECT_EQ(served, first + second);
}

TEST(RtRuntime, SameSlotAsyncOnAFullRingIsOverloaded) {
  // Same-slot async calls ride the slot's own ring: a lap of undrained
  // posts fills it, and the next post is refused instead of queued.
  Runtime rt(2);
  const SlotId slot = rt.register_thread();
  int served = 0;
  const EntryPointId ep = rt.bind({}, 700, [&](RtCtx&, RegSet& regs) {
    ++served;
    set_rc(regs, Status::kOk);
  });
  RegSet regs;
  set_op(regs, 1);
  for (std::size_t i = 0; i < XcallRing::kCapacity; ++i) {
    ASSERT_EQ(rt.call_async(slot, 1, ep, regs), Status::kOk) << i;
  }
  EXPECT_EQ(rt.call_async(slot, 1, ep, regs), Status::kOverloaded);
  const obs::CounterSnapshot c = rt.slot_snapshot(slot);
  EXPECT_EQ(c.get(obs::Counter::kXcallRingFull), 1u);
  EXPECT_EQ(c.get(obs::Counter::kCallsAsync), XcallRing::kCapacity);
  EXPECT_EQ(served, 0);
  EXPECT_EQ(rt.poll(slot), XcallRing::kCapacity);
  EXPECT_EQ(served, static_cast<int>(XcallRing::kCapacity));
  // Executed cells book calls_remote, like every drained ring cell.
  EXPECT_EQ(rt.slot_snapshot(slot).get(obs::Counter::kCallsRemote),
            XcallRing::kCapacity);
  // The drained ring takes posts again.
  EXPECT_EQ(rt.call_async(slot, 1, ep, regs), Status::kOk);
  EXPECT_EQ(rt.poll(slot), 1u);
}

TEST(RtRuntime, ConcurrentCallsFromManyThreads) {
  // Stress: N threads, each on its own slot, hammering two services.
  // Per-slot ownership means no data races by construction; this test
  // (run under the normal harness, and meaningful under TSan) checks
  // totals and isolation.
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 5000;
  Runtime rt(kThreads);
  std::atomic<std::uint64_t> served{0};
  const EntryPointId ep_a = rt.bind({}, 700, [&](RtCtx&, RegSet& regs) {
    served.fetch_add(1, std::memory_order_relaxed);
    set_rc(regs, Status::kOk);
  });
  RtServiceConfig hold;
  hold.hold_cd = true;
  const EntryPointId ep_b = rt.bind(hold, 701, [&](RtCtx&, RegSet& regs) {
    served.fetch_add(1, std::memory_order_relaxed);
    set_rc(regs, Status::kOk);
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const SlotId slot = rt.register_thread();
      RegSet regs;
      for (int i = 0; i < kCallsPerThread; ++i) {
        set_op(regs, 1);
        ASSERT_EQ(rt.call(slot, 1, (i & 1) ? ep_a : ep_b, regs), Status::kOk);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(served.load(), std::uint64_t{kThreads} * kCallsPerThread);
  // Each slot created exactly one worker per service: never shared.
  for (SlotId s = 0; s < kThreads; ++s) {
    EXPECT_EQ(rt.counters(s).get(obs::Counter::kWorkersCreated), 2u)
        << "slot " << s;
    EXPECT_EQ(rt.counters(s).get(obs::Counter::kCallsSync), kCallsPerThread);
  }
}

}  // namespace
}  // namespace hppc::rt
