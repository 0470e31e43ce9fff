// The xcall layer: the bounded MPSC ring and slot gate in isolation, then
// Runtime::call_remote / call_remote_async end to end — including the
// counter contract the bench asserts (warm cross-slot calls never touch
// the allocating mailbox).
#include "rt/xcall.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "fault/failpoints.h"
#include "ppc/regs.h"
#include "rt/runtime.h"

namespace hppc::rt {
namespace {

ppc::RegSet make_regs(Word w0) {
  ppc::RegSet r{};
  r[0] = w0;
  return r;
}

// Fire-and-forget typed cells through the ring's one post entry point.
std::size_t post_many(XcallRing& ring, ProgramId caller, EntryPointId ep,
                      const ppc::RegSet* regs, std::size_t n) {
  return ring.try_post(n, [&](XcallCell& c, std::size_t i) {
    c.caller = caller;
    c.ep = ep;
    c.regs = regs[i];
    c.deadline = 0;
  });
}

bool post_one(XcallRing& ring, ProgramId caller, EntryPointId ep,
              const ppc::RegSet& regs) {
  return post_many(ring, caller, ep, &regs, 1) == 1;
}

// One sync cell; returns its ring position (the caller's release handle).
std::uint64_t post_sync(XcallRing& ring, Word w0) {
  std::uint64_t pos = ~0ull;
  EXPECT_EQ(ring.try_post(
                1,
                [&](XcallCell& c, std::size_t) {
                  c.caller = 1;
                  c.ep = 1;
                  c.regs = make_regs(w0);
                  c.deadline = 0;
                },
                &pos),
            1u);
  return pos;
}

std::uint32_t wait_on(XcallRing& ring, std::uint64_t pos,
                      std::uint64_t deadline = 0) {
  return wait_complete(ring.cell(pos), deadline, kWaitYieldRounds, [] {},
                       [] {});
}

// ---------------------------------------------------------------------------
// XcallRing
// ---------------------------------------------------------------------------

TEST(XcallRing, PostDrainRoundTrip) {
  XcallRing ring;
  EXPECT_EQ(ring.depth(), 0u);
  ASSERT_TRUE(post_one(ring, /*caller=*/7, /*ep=*/9, make_regs(41)));
  EXPECT_EQ(ring.depth(), 1u);
  std::size_t seen = 0;
  const std::size_t n = ring.drain([&](XcallCell& c) {
    EXPECT_EQ(c.caller, 7u);
    EXPECT_EQ(c.ep, 9u);
    EXPECT_EQ(c.regs[0], 41u);
    ++seen;
  });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(ring.depth(), 0u);
}

TEST(XcallRing, FifoOrderWithinABatch) {
  XcallRing ring;
  for (Word i = 0; i < 10; ++i) {
    ASSERT_TRUE(post_one(ring, 1, 1, make_regs(i)));
  }
  Word expect = 0;
  ring.drain([&](XcallCell& c) { EXPECT_EQ(c.regs[0], expect++); });
  EXPECT_EQ(expect, 10u);
}

TEST(XcallRing, FullRingRejectsWithoutBlocking) {
  XcallRing ring;
  for (std::size_t i = 0; i < XcallRing::kCapacity; ++i) {
    ASSERT_TRUE(post_one(ring, 1, 1, make_regs(i))) << i;
  }
  EXPECT_FALSE(post_one(ring, 1, 1, make_regs(999)));
  // One batch retires everything; capacity is available again.
  EXPECT_EQ(ring.drain([](XcallCell&) {}), XcallRing::kCapacity);
  EXPECT_TRUE(post_one(ring, 1, 1, make_regs(0)));
}

TEST(XcallRing, WrapsAcrossManyGenerations) {
  XcallRing ring;
  Word next = 0;
  for (int round = 0; round < 300; ++round) {
    for (Word i = 0; i < 7; ++i) {
      ASSERT_TRUE(post_one(ring, 1, 1, make_regs(next + i)));
    }
    ring.drain([&](XcallCell& c) { EXPECT_EQ(c.regs[0], next++); });
  }
  EXPECT_EQ(next, 2100u);
}

TEST(XcallRing, ConcurrentProducersKeepPerProducerFifo) {
  XcallRing ring;
  constexpr int kProducers = 4;
  constexpr Word kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (Word i = 0; i < kPerProducer; ++i) {
        // Encode (producer, index); spin until the bounded ring has room.
        while (!post_one(ring, static_cast<ProgramId>(p), 1, make_regs(i))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::array<Word, kProducers> next_from{};
  std::size_t total = 0;
  while (total < std::size_t{kProducers} * kPerProducer) {
    const std::size_t n = ring.drain([&](XcallCell& c) {
      ASSERT_LT(c.caller, kProducers);
      EXPECT_EQ(c.regs[0], next_from[c.caller]++);
    });
    total += n;
    if (n == 0) std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  for (Word n : next_from) EXPECT_EQ(n, kPerProducer);
  EXPECT_EQ(ring.depth(), 0u);
}

// ---------------------------------------------------------------------------
// The cell state protocol: completion in the cell, who releases the slot
// ---------------------------------------------------------------------------

TEST(XcallRing, SyncReplyComesBackInTheCellAndTheCallerReleases) {
  XcallRing ring;
  const std::uint64_t pos = post_sync(ring, 41);
  EXPECT_EQ(ring.drain([](XcallCell& c) {
    c.regs[0] += 1;
    return Status::kServerError;
  }),
            1u);
  const std::uint32_t st = wait_on(ring, pos);
  EXPECT_EQ(st, kCellDone | static_cast<std::uint32_t>(Status::kServerError));
  EXPECT_EQ(cell_status(st), Status::kServerError);
  EXPECT_EQ(ring.cell(pos).regs[0], 42u);
  // Drained but not released: the slot is still the caller's, so the
  // producer that laps the ring finds it full there.
  for (std::size_t i = 1; i < XcallRing::kCapacity; ++i) {
    ASSERT_TRUE(post_one(ring, 1, 1, make_regs(i))) << i;
  }
  EXPECT_FALSE(post_one(ring, 1, 1, make_regs(0)));
  EXPECT_EQ(ring.drain([](XcallCell&) {}), XcallRing::kCapacity - 1);
  ring.release(pos);
  EXPECT_TRUE(post_one(ring, 1, 1, make_regs(0)));
}

TEST(XcallRing, HeldCellBlocksABatchClaimAcrossIt) {
  // Slots free up out of order: a completed sync cell at index 0 is still
  // held while the 63 async cells behind it are retired. A 2-run at
  // positions 64..65 spans the held cell and must not be claimed, although
  // its last cell is free.
  XcallRing ring;
  const std::uint64_t pos = post_sync(ring, 0);
  std::array<ppc::RegSet, XcallRing::kCapacity - 1> regs{};
  ASSERT_EQ(post_many(ring, 1, 1, regs.data(), regs.size()), regs.size());
  EXPECT_EQ(ring.drain([](XcallCell&) {}), XcallRing::kCapacity);
  EXPECT_EQ(post_many(ring, 1, 1, regs.data(), 2), 0u);
  ring.release(pos);
  EXPECT_EQ(post_many(ring, 1, 1, regs.data(), 2), 2u);
}

TEST(XcallRing, AbandonedCellIsReleasedByTheConsumerWithoutRunning) {
  XcallRing ring;
  const std::uint64_t pos = post_sync(ring, 1);
  // Deadline tick 1 is long past: the waiter abandons after one spin
  // window.
  EXPECT_EQ(wait_on(ring, pos, /*deadline=*/1), kCellAbandoned);
  int ran = 0;
  EXPECT_EQ(ring.drain([&](XcallCell&) { ++ran; }), 1u);
  EXPECT_EQ(ran, 0);
  // The consumer released the slot: a whole ring fits again.
  std::array<ppc::RegSet, XcallRing::kCapacity> regs{};
  EXPECT_EQ(post_many(ring, 1, 1, regs.data(), regs.size()), regs.size());
}

TEST(XcallRing, CompletionBeatsALateAbandon) {
  XcallRing ring;
  const std::uint64_t pos = post_sync(ring, 7);
  ring.drain([](XcallCell& c) { c.regs[0] = 8; });
  // The deadline has expired, but the completion landed first: the
  // caller takes the real result.
  const std::uint32_t st = wait_on(ring, pos, /*deadline=*/1);
  EXPECT_EQ(st, kCellDone | static_cast<std::uint32_t>(Status::kOk));
  EXPECT_EQ(ring.cell(pos).regs[0], 8u);
  ring.release(pos);
}

TEST(XcallRing, AbortAndRearmCompletesPublishedCallsAndFreesEverySlot) {
  XcallRing ring;
  const std::uint64_t done = post_sync(ring, 1);
  ring.drain([](XcallCell&) {});  // completed, never released
  const std::uint64_t queued = post_sync(ring, 2);
  ASSERT_TRUE(post_one(ring, 1, 1, make_regs(3)));
  ring.abort_and_rearm(Status::kCallAborted);
  // The queued call's caller observes the abort in its cell; the state
  // word of the completed one is left as it was.
  EXPECT_EQ(ring.cell(queued).state.load(),
            kCellDone | static_cast<std::uint32_t>(Status::kCallAborted));
  EXPECT_EQ(ring.cell(done).state.load(),
            kCellDone | static_cast<std::uint32_t>(Status::kOk));
  EXPECT_EQ(ring.depth(), 0u);
  EXPECT_FALSE(ring.head_ready());
  // A release from before the re-arm cannot land on the re-armed ring.
  ring.release(done);
  ring.release(queued);
  for (std::uint64_t i = 0; i < XcallRing::kCapacity; ++i) {
    EXPECT_EQ(ring.cell(i).seq.load(), i);
  }
  std::array<ppc::RegSet, XcallRing::kCapacity> regs{};
  EXPECT_EQ(post_many(ring, 1, 1, regs.data(), regs.size()), regs.size());
}

// ---------------------------------------------------------------------------
// SlotGate
// ---------------------------------------------------------------------------

TEST(SlotGate, StartsIdleAndStealsOnce) {
  SlotGate gate;
  EXPECT_EQ(gate.state(), SlotGate::kIdle);
  EXPECT_TRUE(gate.try_steal());
  EXPECT_EQ(gate.state(), SlotGate::kStolen);
  EXPECT_FALSE(gate.try_steal());  // only one thief at a time
  gate.release_steal();
  EXPECT_EQ(gate.state(), SlotGate::kIdle);
}

TEST(SlotGate, OwnerBlocksThievesUntilIdle) {
  SlotGate gate;
  gate.claim_at_register();
  EXPECT_EQ(gate.state(), SlotGate::kOwner);
  EXPECT_FALSE(gate.try_steal());
  gate.claim_at_register();  // idempotent re-registration
  EXPECT_EQ(gate.state(), SlotGate::kOwner);
  gate.enter_idle();
  EXPECT_TRUE(gate.try_steal());
  // The owner un-parking must wait the thief out.
  std::atomic<bool> resumed{false};
  std::thread owner([&] {
    gate.exit_idle();
    resumed.store(true);
  });
  std::this_thread::yield();
  EXPECT_FALSE(resumed.load());
  gate.release_steal();
  owner.join();
  EXPECT_TRUE(resumed.load());
  EXPECT_EQ(gate.state(), SlotGate::kOwner);
}

TEST(SlotGate, FailedStealLeavesOwnedOrStolenGateUnchanged) {
  // try_steal loads before it CASes: on a gate that is not idle it must
  // refuse without writing, however often a waiter retries.
  SlotGate gate;
  gate.claim_at_register();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(gate.try_steal());
    EXPECT_EQ(gate.state(), SlotGate::kOwner);
  }
  gate.enter_idle();
  ASSERT_TRUE(gate.try_steal());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(gate.try_steal());
    EXPECT_EQ(gate.state(), SlotGate::kStolen);
  }
  gate.release_steal();
  EXPECT_EQ(gate.state(), SlotGate::kIdle);
}

// ---------------------------------------------------------------------------
// Runtime::call_remote / call_remote_async
// ---------------------------------------------------------------------------

/// Binds an adder service: r[1] = r[0] + 1. Returns its entry point.
EntryPointId bind_adder(Runtime& rt) {
  return rt.bind({.name = "adder"}, /*program=*/0,
                 [](RtCtx&, ppc::RegSet& r) {
                   r[1] = r[0] + 1;
                   ppc::set_rc(r, Status::kOk);
                 });
}

TEST(CallRemote, DirectExecutesOnIdleSlot) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  ASSERT_EQ(me, 0u);
  const EntryPointId ep = bind_adder(rt);
  // Slot 1 never registered: its gate is idle, so the call direct-executes
  // on this thread against slot 1's pools.
  ppc::RegSet r = make_regs(10);
  ASSERT_EQ(rt.call_remote(me, /*target=*/1, /*caller=*/1, ep, r),
            Status::kOk);
  EXPECT_EQ(r[1], 11u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 1u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 1u);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 0u);
  // No allocation-path traffic anywhere.
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
}

TEST(CallRemote, SameSlotDegeneratesToLocalCall) {
  Runtime rt(1);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  ppc::RegSet r = make_regs(5);
  ASSERT_EQ(rt.call_remote(me, me, 1, ep, r), Status::kOk);
  EXPECT_EQ(r[1], 6u);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kCallsSync), 1u);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kCallsRemote), 0u);
}

TEST(CallRemote, RingPathWhileOwnerPolls) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::atomic<bool> stop{false};
  std::atomic<bool> owner_up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    ASSERT_EQ(s, 1u);
    owner_up.store(true, std::memory_order_release);
    // Poll-driven owner: the gate stays kOwner throughout (yield does not
    // park), so the caller cannot steal and must take the ring path.
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!owner_up.load(std::memory_order_acquire)) std::this_thread::yield();
  for (Word i = 0; i < 200; ++i) {
    ppc::RegSet r = make_regs(i);
    ASSERT_EQ(rt.call_remote(me, 1, /*caller=*/1, ep, r), Status::kOk);
    ASSERT_EQ(r[1], i + 1);
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 200u);
  EXPECT_GT(rt.counters(1).get(obs::Counter::kXcallBatches), 0u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 200u);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
}

TEST(CallRemote, ServedSlotAnswersAndParksIdle) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::atomic<bool> stop{false};
  std::thread server([&] {
    const SlotId s = rt.register_thread();
    rt.serve(s, stop);
  });
  for (Word i = 0; i < 500; ++i) {
    ppc::RegSet r = make_regs(i);
    ASSERT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
    ASSERT_EQ(r[1], i + 1);
  }
  stop.store(true, std::memory_order_release);
  server.join();
  const auto& c = rt.counters(1);
  // Every call executed remotely, by direct steal or ring cell.
  EXPECT_EQ(c.get(obs::Counter::kCallsRemote), 500u);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
}

TEST(CallRemote, DrainingServiceReportsStatus) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  ASSERT_EQ(rt.soft_kill(ep), Status::kOk);
  ppc::RegSet r = make_regs(1);
  EXPECT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kEntryPointDraining);
  EXPECT_EQ(rt.call_remote(me, 1, 1, kInvalidEntryPoint, r),
            Status::kNoSuchEntryPoint);
}

TEST(CallRemoteAsync, ExecutedAtTargetPoll) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::atomic<int> hits{0};
  const EntryPointId ep =
      rt.bind({.name = "tally"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        hits.fetch_add(static_cast<int>(r[0]), std::memory_order_relaxed);
        ppc::set_rc(r, Status::kOk);
      });
  for (Word i = 1; i <= 8; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  EXPECT_EQ(hits.load(), 0);  // nothing ran yet: cells are parked in the ring
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    EXPECT_GE(rt.poll(s), 8u);
  });
  owner.join();
  EXPECT_EQ(hits.load(), 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 8u);
}

TEST(CallRemoteAsync, RingOverflowFallsBackToMailbox) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::atomic<int> hits{0};
  const EntryPointId ep =
      rt.bind({.name = "tally"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        hits.fetch_add(1, std::memory_order_relaxed);
        ppc::set_rc(r, Status::kOk);
      });
  // Hold slot 1's gate as its registered owner (in a thread that is not
  // draining), so async posts park in the ring until it fills.
  std::atomic<bool> filled{false};
  std::atomic<bool> stop{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    while (!filled.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop.load(std::memory_order_acquire)) rt.poll(s);
  });
  const std::size_t n = XcallRing::kCapacity + 8;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  // The overflow beyond kCapacity went through the allocating mailbox.
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallRingFull), 8u);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 8u);
  filled.store(true, std::memory_order_release);
  while (hits.load(std::memory_order_relaxed) < static_cast<int>(n)) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(hits.load(), static_cast<int>(n));
}

TEST(CallRemote, WarmCrossSlotCallsNeverAllocate) {
  // Single-threaded on purpose (the snapshot reads must not race the
  // target's counter stores): the target slot is never registered, so
  // every call takes the direct-execution path on this thread. The ring
  // path's no-alloc warm phase is asserted by the xcall_latency bench.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  // Warm up: worker + CD creation on the target slot happen here.
  for (int i = 0; i < 32; ++i) {
    ppc::RegSet r = make_regs(i);
    ASSERT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
  }
  const auto before = rt.snapshot();
  for (Word i = 0; i < 1000; ++i) {
    ppc::RegSet r = make_regs(i);
    ASSERT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
    ASSERT_EQ(r[1], i + 1);
  }
  const auto delta = rt.snapshot().delta(before);
  // The invariant the whole layer exists for: a warm cross-slot call takes
  // no locks and performs zero heap allocations, on either side.
  EXPECT_EQ(delta.get(obs::Counter::kMailboxAllocs), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kMailboxPosts), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kLocksTaken), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kWorkersCreated), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kCdsCreated), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kCallsRemote), 1000u);
  EXPECT_EQ(delta.get(obs::Counter::kXcallDirect), 1000u);
}

TEST(CallRemote, MultiCallerStress) {
  // TSan's bread and butter: several caller threads hammer one served slot
  // with sync calls while async posts fly in, all through gate handoffs.
  Runtime rt(5);
  const EntryPointId ep = [&] {
    Runtime& r = rt;
    return r.bind({.name = "adder"}, 0, [](RtCtx&, ppc::RegSet& regs) {
      regs[1] = regs[0] + 1;
      ppc::set_rc(regs, Status::kOk);
    });
  }();
  std::atomic<bool> stop{false};
  std::atomic<bool> server_up{false};
  std::thread server([&] {
    const SlotId s = rt.register_thread();
    EXPECT_EQ(s, 0u);
    server_up.store(true, std::memory_order_release);
    rt.serve(s, stop);
  });
  while (!server_up.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  constexpr int kCallers = 4;
  constexpr Word kCallsEach = 500;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      const SlotId my = rt.register_thread();
      for (Word i = 0; i < kCallsEach; ++i) {
        ppc::RegSet r = make_regs(i);
        if (rt.call_remote(my, 0, /*caller=*/my, ep, r) != Status::kOk ||
            r[1] != i + 1) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 64 == 0) {
          rt.call_remote_async(my, 0, my, ep, make_regs(i));
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  stop.store(true, std::memory_order_release);
  server.join();
  EXPECT_EQ(failures.load(), 0);
  // Every sync call ran exactly once somewhere on slot 0's state.
  EXPECT_GE(rt.counters(0).get(obs::Counter::kCallsRemote),
            std::uint64_t{kCallers} * kCallsEach);
}

// ---------------------------------------------------------------------------
// Robustness: ring-full accounting, deadlines, backoff, shedding
// ---------------------------------------------------------------------------

// Pin slot 1's gate to kOwner without ever draining: posts park in the
// ring until it fills, making the overflow branches deterministic.
class StuckOwner {
 public:
  explicit StuckOwner(Runtime& rt) {
    thread_ = std::thread([this, &rt] {
      const SlotId s = rt.register_thread();
      EXPECT_EQ(s, 1u);
      up_.store(true, std::memory_order_release);
      while (!release_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      // Drain everything that parked while we were stuck, so abandoned
      // cells get acked and the runtime quiesces before destruction; then
      // park the gate so later remote calls can direct-execute instead of
      // posting into a ring nobody will ever drain again.
      while (rt.poll(s) > 0) {
      }
      rt.enter_idle(s);
    });
    while (!up_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  void release_and_join() {
    release_.store(true, std::memory_order_release);
    thread_.join();
  }

 private:
  std::thread thread_;
  std::atomic<bool> up_{false};
  std::atomic<bool> release_{false};
};

TEST(CallRemote, SyncRingFullBranchesBookTheCounter) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  StuckOwner owner(rt);

  // Fill the ring with async posts (counted 0 times: they all fit) ...
  for (std::size_t i = 0; i < XcallRing::kCapacity; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallRingFull), 0u);

  // ... then hit the full ring on every post variant. Async: overflow to
  // the mailbox, one ring_full + one alloc each. Sync fail-fast: ring_full
  // booked even though the call never waits.
  ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(0)), Status::kOk);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallRingFull), 1u);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 1u);

  CallOptions fail_fast;
  fail_fast.retry = RetryPolicy::kFailFast;
  ppc::RegSet r = make_regs(1);
  EXPECT_EQ(rt.call_remote(me, 1, 1, ep, r, fail_fast), Status::kOverloaded);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallRingFull), 2u);

  // Bounded backoff: books ring_full once, retries, burns backoff cycles,
  // then gives up — the owner never drains, so the ring stays full.
  CallOptions backoff;
  backoff.retry = RetryPolicy::kBackoff;
  backoff.backoff_rounds = 4;
  r = make_regs(1);
  EXPECT_EQ(rt.call_remote(me, 1, 1, ep, r, backoff), Status::kOverloaded);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallRingFull), 3u);
  EXPECT_GE(rt.counters(me).get(obs::Counter::kRetries), 4u);
  EXPECT_GT(rt.counters(me).get(obs::Counter::kBackoffCycles), 0u);

  owner.release_and_join();
}

TEST(CallRemoteBatch, BackoffGivesUpOnFullRing) {
  // The batch lane runs the same retry policy as call_remote: a bounded
  // backoff against a ring nobody drains gives up with kOverloaded after
  // backoff_rounds failed posts instead of blocking forever.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  StuckOwner owner(rt);
  for (std::size_t i = 0; i < XcallRing::kCapacity; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  CallOptions backoff;
  backoff.retry = RetryPolicy::kBackoff;
  backoff.backoff_rounds = 4;
  std::array<ppc::RegSet, 8> batch;
  for (Word i = 0; i < batch.size(); ++i) batch[i] = make_regs(i);
  EXPECT_EQ(rt.call_remote_batch(me, 1, 1, ep, batch, backoff),
            Status::kOverloaded);
  for (const ppc::RegSet& r : batch) {
    EXPECT_EQ(ppc::rc_of(r), Status::kOverloaded);
  }
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallRingFull), 1u);
  EXPECT_GE(rt.counters(me).get(obs::Counter::kRetries), 4u);
  EXPECT_GT(rt.counters(me).get(obs::Counter::kBackoffCycles), 0u);
  owner.release_and_join();
}

TEST(CallRemote, DeadlineExceededOnStuckOwner) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  StuckOwner owner(rt);

  CallOptions opts;
  opts.deadline_cycles = 200'000;  // expires long before the owner wakes
  ppc::RegSet r = make_regs(1);
  const Status s = rt.call_remote(me, 1, 1, ep, r, opts);
  EXPECT_EQ(s, Status::kDeadlineExceeded);
  EXPECT_EQ(ppc::rc_of(r), Status::kDeadlineExceeded);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kDeadlineExceeded), 1u);

  // The abandoned cell is still in the ring; when the owner finally
  // drains, it must be acked and skipped — then fresh calls work.
  owner.release_and_join();
  r = make_regs(5);
  EXPECT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
  EXPECT_EQ(r[1], 6u);
  // Exactly one remote call executed: the abandoned one was skipped.
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 1u);
}

TEST(CallRemote, DeadlineCallCompletesNormallyOnLiveServer) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::atomic<bool> stop{false};
  std::thread server([&] {
    const SlotId s = rt.register_thread();
    rt.serve(s, stop);
  });
  CallOptions opts;
  opts.deadline_cycles = 500'000'000;  // effectively infinite
  for (Word i = 0; i < 200; ++i) {
    ppc::RegSet r = make_regs(i);
    ASSERT_EQ(rt.call_remote(me, 1, 1, ep, r, opts), Status::kOk);
    ASSERT_EQ(r[1], i + 1);  // the reply round-trips the pooled block
  }
  stop.store(true, std::memory_order_release);
  server.join();
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kDeadlineExceeded), 0u);
  // The pooled-wait path is still allocation-free once warm: one block
  // serves all 200 calls.
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
}

TEST(CallRemote, ShedsAtWatermark) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  StuckOwner owner(rt);
  rt.set_shed_watermark(8);

  // Fill to the watermark with async posts, then watch both variants shed.
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  EXPECT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(9)),
            Status::kOverloaded);
  ppc::RegSet r = make_regs(9);
  EXPECT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOverloaded);
  EXPECT_EQ(ppc::rc_of(r), Status::kOverloaded);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kCallsShed), 2u);
  // Shed calls never entered the queue and never touched the mailbox.
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);

  // Draining the backlog reopens admission.
  rt.set_shed_watermark(0);
  owner.release_and_join();
  rt.set_shed_watermark(8);
  r = make_regs(3);
  EXPECT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
  EXPECT_EQ(r[1], 4u);
}

// ---------------------------------------------------------------------------
// Batched submission: multi-cell posts at ring level, call_remote_batch above
// ---------------------------------------------------------------------------

TEST(XcallRing, BatchPostPublishesContiguousRunInOrder) {
  XcallRing ring;
  std::array<ppc::RegSet, 10> regs{};
  for (Word i = 0; i < regs.size(); ++i) regs[i][0] = 100 + i;
  ASSERT_EQ(post_many(ring, /*caller=*/3, /*ep=*/7, regs.data(),
                      regs.size()),
            regs.size());
  Word expect = 100;
  const std::size_t n = ring.drain([&](XcallCell& c) {
    EXPECT_EQ(c.caller, 3u);
    EXPECT_EQ(c.ep, 7u);
    EXPECT_EQ(c.regs[0], expect++);
  });
  EXPECT_EQ(n, regs.size());
  EXPECT_EQ(ring.depth(), 0u);
}

TEST(XcallRing, BatchSpansRingWrap) {
  XcallRing ring;
  // Advance both cursors to 60 so a 16-cell batch claims [60, 76): the run
  // crosses the index wrap, where "contiguous" means contiguous positions,
  // not contiguous array slots.
  for (Word i = 0; i < 60; ++i) {
    ASSERT_TRUE(post_one(ring, 1, 1, make_regs(i)));
  }
  ring.drain([](XcallCell&) {});
  std::array<ppc::RegSet, 16> regs{};
  for (Word i = 0; i < regs.size(); ++i) regs[i][0] = i;
  ASSERT_EQ(post_many(ring, 1, 1, regs.data(), regs.size()),
            regs.size());
  Word expect = 0;
  EXPECT_EQ(ring.drain([&](XcallCell& c) { EXPECT_EQ(c.regs[0], expect++); }),
            regs.size());
  EXPECT_EQ(expect, 16u);
}

TEST(XcallRing, BatchClaimHalvesNearFullAndReturnsZeroWhenFull) {
  XcallRing ring;
  // 59 occupied, 5 free: a 16-run fails its last-cell check, so does 8;
  // 4 fits. The halving never claims cells it cannot publish.
  for (std::size_t i = 0; i < 59; ++i) {
    ASSERT_TRUE(post_one(ring, 1, 1, make_regs(i)));
  }
  std::array<ppc::RegSet, 16> regs{};
  EXPECT_EQ(post_many(ring, 1, 1, regs.data(), regs.size()), 4u);
  EXPECT_EQ(post_many(ring, 1, 1, regs.data(), regs.size()), 1u);
  EXPECT_EQ(post_many(ring, 1, 1, regs.data(), regs.size()), 0u);
  EXPECT_EQ(ring.drain([](XcallCell&) {}), XcallRing::kCapacity);
}

TEST(XcallRing, RacingProducersNeverSeeAFullRingWithRoom) {
  // Two producers post single cells into a ring that never holds more than
  // 62 of its 64: every post must succeed. A producer that loses the race
  // for a cell finds that cell's seq ahead of its stale cursor; the claim
  // must reload the cursor there, not shrink the run to nothing and
  // answer "full".
  XcallRing ring;
  constexpr int kRounds = 2000;
  constexpr Word kPerProducer = (XcallRing::kCapacity - 2) / 2;
  std::atomic<int> round{-1};
  std::atomic<int> finished{0};
  std::atomic<int> false_full{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (int r = 0; r < kRounds; ++r) {
        while (round.load(std::memory_order_acquire) < r) cpu_relax();
        for (Word i = 0; i < kPerProducer; ++i) {
          if (!post_one(ring, static_cast<ProgramId>(p), 1, make_regs(i))) {
            false_full.fetch_add(1, std::memory_order_relaxed);
          }
        }
        finished.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    round.store(r, std::memory_order_release);
    while (finished.load(std::memory_order_acquire) < 2 * (r + 1)) {
      std::this_thread::yield();
    }
    ring.drain([](XcallCell&) {});
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(false_full.load(), 0);
}

TEST(XcallRing, ConcurrentBatchAndSinglePostsKeepPerProducerFifo) {
  // Two vectored producers race two single-cell producers on one ring; the
  // consumer must still observe every producer's cells in that producer's
  // submission order (batch runs are claimed atomically, so a run can never
  // interleave with itself). TSan sweeps the relaxed-publish protocol here.
  XcallRing ring;
  constexpr Word kPerProducer = 4000;
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {  // batch producers
    producers.emplace_back([&, p] {
      std::array<ppc::RegSet, 8> regs{};
      Word next = 0;
      while (next < kPerProducer) {
        const std::size_t want =
            std::min<std::size_t>(regs.size(), kPerProducer - next);
        for (std::size_t i = 0; i < want; ++i) regs[i][0] = next + i;
        const std::size_t posted = post_many(
            ring, static_cast<ProgramId>(p), 1, regs.data(), want);
        next += posted;
        if (posted == 0) std::this_thread::yield();
      }
    });
  }
  for (int p = 2; p < 4; ++p) {  // single-cell producers
    producers.emplace_back([&, p] {
      for (Word i = 0; i < kPerProducer; ++i) {
        while (!post_one(ring, static_cast<ProgramId>(p), 1, make_regs(i))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::array<Word, 4> next_from{};
  std::size_t total = 0;
  while (total < 4 * kPerProducer) {
    const std::size_t n = ring.drain([&](XcallCell& c) {
      ASSERT_LT(c.caller, 4u);
      EXPECT_EQ(c.regs[0], next_from[c.caller]++);
    });
    total += n;
    if (n == 0) std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  for (Word n : next_from) EXPECT_EQ(n, kPerProducer);
}

TEST(CallRemoteBatch, DirectExecutesWholeBatchOnIdleSlot) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::array<RegSet, 8> batch{};
  for (Word i = 0; i < batch.size(); ++i) batch[i][0] = i;
  ASSERT_EQ(rt.call_remote_batch(me, 1, /*caller=*/1, ep, batch), Status::kOk);
  for (Word i = 0; i < batch.size(); ++i) EXPECT_EQ(batch[i][1], i + 1);
  // One gate steal covered the whole batch: no ring traffic at all.
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 8u);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 0u);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallBatchPosts), 0u);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
}

TEST(CallRemoteBatch, SameSlotDegeneratesToLocalCalls) {
  Runtime rt(1);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::array<RegSet, 4> batch{};
  for (Word i = 0; i < batch.size(); ++i) batch[i][0] = 10 + i;
  ASSERT_EQ(rt.call_remote_batch(me, me, 1, ep, batch), Status::kOk);
  for (Word i = 0; i < batch.size(); ++i) EXPECT_EQ(batch[i][1], 11 + i);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kCallsSync), 4u);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kCallsRemote), 0u);
}

TEST(CallRemoteBatch, ScreensDeadServiceOncePerBatch) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  ASSERT_EQ(rt.soft_kill(ep), Status::kOk);
  std::array<RegSet, 3> batch{};
  EXPECT_EQ(rt.call_remote_batch(me, 1, 1, ep, batch),
            Status::kEntryPointDraining);
  for (const RegSet& r : batch) {
    EXPECT_EQ(ppc::rc_of(r), Status::kEntryPointDraining);
  }
  EXPECT_EQ(rt.call_remote_batch(me, 1, 1, kInvalidEntryPoint, batch),
            Status::kNoSuchEntryPoint);
}

TEST(CallRemoteBatch, RingPathChunksLargeBatchAcrossDoorbells) {
  // A batch bigger than the ring must be split into at least two vectored
  // posts (two doorbells), with every reply landing in its own RegSet.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::atomic<bool> stop{false};
  std::atomic<bool> owner_up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    owner_up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!owner_up.load(std::memory_order_acquire)) std::this_thread::yield();
  constexpr std::size_t kBatch = XcallRing::kCapacity + 36;
  std::vector<RegSet> batch(kBatch);
  for (Word i = 0; i < kBatch; ++i) batch[i][0] = i;
  ASSERT_EQ(rt.call_remote_batch(me, 1, 1, ep,
                                 std::span<RegSet>(batch.data(), kBatch)),
            Status::kOk);
  stop.store(true, std::memory_order_release);
  owner.join();
  for (Word i = 0; i < kBatch; ++i) ASSERT_EQ(batch[i][1], i + 1);
  const auto& c = rt.counters(0);
  EXPECT_EQ(c.get(obs::Counter::kXcallPosts), kBatch);
  EXPECT_GE(c.get(obs::Counter::kXcallBatchPosts), 2u);
  EXPECT_EQ(c.get(obs::Counter::kXcallCellsPerBatch), kBatch);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), kBatch);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 0u);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
}

TEST(CallRemoteBatch, WarmBatchesTakeNoLocksAndNeverAllocate) {
  // The acceptance invariant for the whole feature: a warm batched post
  // cycle touches no lock and allocates nothing. The owner thread is live
  // here, so only this thread's slot block and the (atomic) shared block
  // may be read — both are race-free while the owner keeps polling.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::atomic<bool> stop{false};
  std::atomic<bool> owner_up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    owner_up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!owner_up.load(std::memory_order_acquire)) std::this_thread::yield();
  std::array<RegSet, 16> batch{};
  auto run_batch = [&] {
    for (Word i = 0; i < batch.size(); ++i) batch[i][0] = i;
    ASSERT_EQ(rt.call_remote_batch(me, 1, 1, ep, batch), Status::kOk);
  };
  for (int warm = 0; warm < 4; ++warm) run_batch();
  const auto before_me = rt.slot_snapshot(me);
  const std::uint64_t before_allocs =
      rt.shared_counters().get(obs::Counter::kMailboxAllocs);
  const std::uint64_t before_locks =
      rt.shared_counters().get(obs::Counter::kLocksTaken);
  constexpr std::uint64_t kRounds = 64;
  for (std::uint64_t r = 0; r < kRounds; ++r) run_batch();
  const auto delta = rt.slot_snapshot(me).delta(before_me);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs),
            before_allocs);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kLocksTaken), before_locks);
  EXPECT_EQ(delta.get(obs::Counter::kLocksTaken), 0u);
  // Every warm batch is one claim + one doorbell: 16 cells per vectored
  // post, no ring-full retries anywhere.
  EXPECT_EQ(delta.get(obs::Counter::kXcallBatchPosts), kRounds);
  EXPECT_EQ(delta.get(obs::Counter::kXcallCellsPerBatch), kRounds * 16);
  EXPECT_EQ(delta.get(obs::Counter::kXcallPosts), kRounds * 16);
  EXPECT_EQ(delta.get(obs::Counter::kXcallRingFull), 0u);
  stop.store(true, std::memory_order_release);
  owner.join();
}

TEST(CallRemoteBatch, DeadlineExpiresOnStuckOwnerAndCellsAreReleased) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  StuckOwner owner(rt);

  CallOptions opts;
  opts.deadline_cycles = 200'000;
  std::array<RegSet, 4> batch{};
  for (Word i = 0; i < batch.size(); ++i) batch[i][0] = i;
  EXPECT_EQ(rt.call_remote_batch(me, 1, 1, ep, batch, opts),
            Status::kDeadlineExceeded);
  for (const RegSet& r : batch) {
    EXPECT_EQ(ppc::rc_of(r), Status::kDeadlineExceeded);
  }
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kDeadlineExceeded), 4u);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallBatchPosts), 1u);

  // The four abandoned cells hold their ring slots until the owner's drain
  // reaches them and releases them, without executing them. Then a whole
  // ring's worth of cells fits again: a fail-fast batch of kCapacity
  // against a polling owner completes.
  owner.release_and_join();
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 0u);
  std::atomic<bool> stop{false};
  std::atomic<bool> holding{false};
  std::thread poller([&] {
    // Take slot 1's gate back, so the batch below goes through the ring
    // instead of direct-executing on an idle slot.
    rt.exit_idle(1);
    holding.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(1) == 0) std::this_thread::yield();
    }
    rt.enter_idle(1);
  });
  while (!holding.load(std::memory_order_acquire)) std::this_thread::yield();
  std::array<RegSet, XcallRing::kCapacity> full{};
  CallOptions fail_fast;
  fail_fast.retry = RetryPolicy::kFailFast;
  EXPECT_EQ(rt.call_remote_batch(me, 1, 1, ep, full, fail_fast), Status::kOk);
  stop.store(true, std::memory_order_release);
  poller.join();
}

// ---------------------------------------------------------------------------
// Ready-mask scheduling, async cell deadlines, park/kick
// ---------------------------------------------------------------------------

TEST(ReadyMask, ManyProducersOnePollingConsumerLoseNothing) {
  // Four producers set doorbell bits while the consumer clears idle ones:
  // the set-vs-clear race is closed by the clear handshake (the producer
  // fences between publish and mask load, the consumer between clear and
  // re-check), so every posted call must execute exactly once. TSan
  // target.
  Runtime rt(5);
  std::atomic<Word> hits{0};
  const EntryPointId ep =
      rt.bind({.name = "tally"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        hits.fetch_add(r[0], std::memory_order_relaxed);
        ppc::set_rc(r, Status::kOk);
      });
  std::atomic<bool> stop{false};
  std::atomic<bool> owner_up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    EXPECT_EQ(s, 0u);
    owner_up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!owner_up.load(std::memory_order_acquire)) std::this_thread::yield();
  constexpr Word kEach = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      const SlotId my = rt.register_thread();
      for (Word i = 0; i < kEach; ++i) {
        ASSERT_EQ(rt.call_remote_async(my, 0, my, ep, make_regs(1)),
                  Status::kOk);
      }
    });
  }
  for (auto& t : producers) t.join();
  while (hits.load(std::memory_order_relaxed) < 4 * kEach) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(hits.load(), 4 * kEach);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kCallsRemote), 4 * kEach);
}

TEST(ReadyMask, StickyBitClearsWithinIdlePollsOfTheLastCall) {
  // A producer's bit stays set while its ring keeps being visited, and the
  // consumer clears it through the handshake once the ring has been empty
  // for kDoorbellIdlePolls visits: after the last call the mask is back
  // to 0 within K+1 polls (the poll that drains it, then K empty ones).
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::atomic<int> phase{0};
  std::size_t drained_first = 0;
  std::uint32_t polls = 0;
  std::uint64_t mask_after_first = 0;
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    ASSERT_EQ(s, 1u);
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    drained_first = rt.poll(s);
    mask_after_first = rt.ready_mask(s);
    polls = 1;
    while (rt.ready_mask(s) != 0 && polls < 4 * kDoorbellIdlePolls) {
      rt.poll(s);
      ++polls;
    }
  });
  while (phase.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  for (Word i = 0; i < 3; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  // One doorbell for the burst: the later posts found the bit set.
  EXPECT_EQ(rt.ready_mask(1), std::uint64_t{1} << me);
  phase.store(2, std::memory_order_release);
  owner.join();
  EXPECT_EQ(drained_first, 3u);
  EXPECT_EQ(mask_after_first, std::uint64_t{1} << me);  // sticky
  EXPECT_LE(polls, kDoorbellIdlePolls + 1);
  EXPECT_EQ(rt.ready_mask(1), 0u);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kReadyMaskSkips), 2u);
}

TEST(ReadyMask, ThiefHandsAnIdleSlotBackWithAClearMask) {
  // A bit left set by an owner that parked through enter_idle is cleared
  // by the first thief: nobody polls an idle slot, so the direct call
  // settles the mask through the handshake before releasing the gate.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::atomic<int> phase{0};
  std::uint64_t mask_after_poll = 0;
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    rt.poll(s);
    mask_after_poll = rt.ready_mask(s);
    rt.enter_idle(s);
  });
  while (phase.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(1)), Status::kOk);
  phase.store(2, std::memory_order_release);
  owner.join();
  EXPECT_EQ(mask_after_poll, std::uint64_t{1} << me);  // sticky
  ppc::RegSet r = make_regs(4);
  ASSERT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
  EXPECT_EQ(r[1], 5u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 1u);
  EXPECT_EQ(rt.ready_mask(1), 0u);
}

TEST(ReadyMask, ServedOwnerSettlesItsMaskAfterRingTraffic) {
  // serve() clears its slot's bits through the handshake after every
  // poll, before it publishes idle: once the ring traffic stops, the mask
  // reads 0 while the owner is parked.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::atomic<int> hits{0};
  const EntryPointId ep =
      rt.bind({.name = "tally"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        hits.fetch_add(1, std::memory_order_relaxed);
        ppc::set_rc(r, Status::kOk);
      });
  std::atomic<bool> stop{false};
  std::thread server([&] { rt.serve(rt.register_thread(), stop); });
  for (Word i = 0; i < 8; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  while (hits.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.ready_mask(1) != 0 && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
  EXPECT_EQ(rt.ready_mask(1), 0u);
  stop.store(true, std::memory_order_release);
  server.join();
}

#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
TEST(ReadyMask, ClearHandshakeServesACallPostedInsideTheWindow) {
  // "rt.xcall.doorbell.clear" holds the consumer between its clear RMW and
  // its re-check of the ring. A sync call posted inside that window must
  // be served by that re-check — by the very poll that cleared the bit —
  // not by a later poll, and never by the kPollScanPeriod full scan.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::atomic<std::uint64_t> polls{0};
  std::atomic<std::uint64_t> served_at{0};
  const EntryPointId ep =
      rt.bind({.name = "stamp"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        served_at.store(polls.load(std::memory_order_acquire),
                        std::memory_order_relaxed);
        r[1] = r[0] + 1;
        ppc::set_rc(r, Status::kOk);
      });
  std::atomic<bool> stop{false};
  std::atomic<bool> owner_up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    owner_up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      rt.poll(s);
      polls.fetch_add(1, std::memory_order_release);
    }
  });
  while (!owner_up.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // One call flags our bit; the owner's empty visits then count up to the
  // clear, which fires the seam. Armed first: the mask was clear until
  // this call, so the first clear to reach the seam is the one after it.
  const std::uint64_t before = fault::injected("rt.xcall.doorbell.clear");
  ASSERT_TRUE(fault::arm("rt.xcall.doorbell.clear", "oneshot,delay=4000000"));
  ppc::RegSet first = make_regs(1);
  EXPECT_EQ(rt.call_remote(me, 1, 1, ep, first), Status::kOk);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool fired = false;
  while (!(fired = fault::injected("rt.xcall.doorbell.clear") != before) &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
  std::uint64_t window_poll = 0;
  if (fired) {
    // The owner is inside the window: its bit is clear, its re-check is
    // pending, and the poll it is in has not been counted yet.
    window_poll = polls.load(std::memory_order_acquire);
    EXPECT_EQ(rt.ready_mask(1), 0u);
    ppc::RegSet r = make_regs(7);
    EXPECT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
    EXPECT_EQ(r[1], 8u);
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  fault::disarm("rt.xcall.doorbell.clear");
  ASSERT_TRUE(fired) << "the idle bit was never cleared";
  // Served inside the poll that opened the window (the handler stamps the
  // owner's completed-poll count) — well short of the next full scan.
  EXPECT_EQ(served_at.load(), window_poll);
  EXPECT_LT(served_at.load() - window_poll, kPollScanPeriod);
}
#endif  // HPPC_FAULT_INJECTION

TEST(CallRemoteAsync, ExpiredDeadlineCellIsDroppedAtDrain) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::atomic<int> hits{0};
  const EntryPointId ep =
      rt.bind({.name = "tally"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        hits.fetch_add(1, std::memory_order_relaxed);
        ppc::set_rc(r, Status::kOk);
      });
  StuckOwner owner(rt);
  CallOptions opts;
  opts.deadline_cycles = 100'000;  // expires long before the owner drains
  ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(1), opts),
            Status::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  owner.release_and_join();  // drain reaches the cell after its deadline
  EXPECT_EQ(hits.load(), 0);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kDeadlineExceeded), 1u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 0u);
}

#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
TEST(CallRemote, ForcedParkIsKickedByCompletingServer) {
  // "rt.xcall.park.now" collapses the yield phase, so every ring-path wait
  // goes straight to the park CAS; the owner's drain must then observe the
  // parked bit and kick the waiter — the test hangs if the kick is lost.
  // A polling owner on its own core can answer inside the waiter's spin
  // window, so "rt.xcall.complete.delay" holds every completion back far
  // longer than that window: each call parks and is kicked, whatever the
  // core count.
  ASSERT_TRUE(fault::arm("rt.xcall.park.now", "always"));
  ASSERT_TRUE(fault::arm("rt.xcall.complete.delay", "always,delay=20000"));
  {
    Runtime rt(2);
    const SlotId me = rt.register_thread();
    const EntryPointId ep = bind_adder(rt);
    std::atomic<bool> stop{false};
    std::atomic<bool> owner_up{false};
    std::thread owner([&] {
      const SlotId s = rt.register_thread();
      owner_up.store(true, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        if (rt.poll(s) == 0) std::this_thread::yield();
      }
    });
    while (!owner_up.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (Word i = 0; i < 32; ++i) {
      ppc::RegSet r = make_regs(i);
      ASSERT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
      ASSERT_EQ(r[1], i + 1);
    }
    stop.store(true, std::memory_order_release);
    owner.join();
    EXPECT_GE(rt.counters(0).get(obs::Counter::kWaiterParks), 1u);
    EXPECT_GE(rt.counters(1).get(obs::Counter::kWaiterKicks), 1u);
    // A kick only ever answers a park.
    EXPECT_LE(rt.counters(1).get(obs::Counter::kWaiterKicks),
              rt.counters(0).get(obs::Counter::kWaiterParks));
  }
  fault::disarm("rt.xcall.complete.delay");
  fault::disarm("rt.xcall.park.now");
}
#endif  // HPPC_FAULT_INJECTION

TEST(CallRemote, HardKillWhileCellParkedAbortsInFlight) {
  Runtime rt(3);
  ASSERT_EQ(rt.register_thread(), 0u);  // the stuck owner takes slot 1
  const EntryPointId ep = bind_adder(rt);
  StuckOwner owner(rt);

  // Park a sync call's cell in the stuck owner's ring, then hard-kill the
  // service before the drain: §4.5.2 demands the in-flight call abort.
  std::atomic<Status> result{Status::kOk};
  std::thread caller([&] {
    const SlotId s = rt.register_thread();
    ppc::RegSet r = make_regs(1);
    result.store(rt.call_remote(s, 1, 2, ep, r), std::memory_order_release);
  });
  // Deterministic ordering: the kill happens only once the cell is visibly
  // parked (atomic ring-cursor reads — no race with the caller's stores),
  // which also means the caller passed its pre-screen while alive.
  while (rt.xcall_depth(1) == 0) std::this_thread::yield();
  ASSERT_EQ(rt.hard_kill(ep), Status::kOk);
  owner.release_and_join();  // drain: re-resolve fails -> kCallAborted
  caller.join();
  EXPECT_EQ(result.load(), Status::kCallAborted);
}

}  // namespace
}  // namespace hppc::rt
