// The xcall layer: the bounded single-producer ring and slot gate in
// isolation, then Runtime::call_remote / call_remote_async end to end —
// including the
// contract the bench asserts (warm cross-slot calls never allocate,
// counted by the global operator new of common/heap_audit.h).
#include "rt/xcall.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "common/heap_audit.h"
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

// One sync cell; returns its ring position (the caller's wait handle).
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

// ---------------------------------------------------------------------------
// The cell state protocol: completion in the cell, the consumer retires
// ---------------------------------------------------------------------------

TEST(XcallRing, SyncReplyComesBackInTheCellAndTheConsumerRetiresIt) {
  XcallRing ring;
  const std::uint64_t pos = post_sync(ring, 41);
  EXPECT_EQ(ring.drain([](XcallCell& c) {
    c.regs[0] += 1;
    return Status::kServerError;
  }),
            1u);
  // The drain completed AND retired the cell: its seq is already the next
  // lap's free value, before the caller has looked at the reply.
  EXPECT_EQ(ring.cell(pos).seq.load(), pos + XcallRing::kCapacity);
  const std::uint32_t st = wait_on(ring, pos);
  EXPECT_EQ(st, kCellDone | static_cast<std::uint32_t>(Status::kServerError));
  EXPECT_EQ(cell_status(st), Status::kServerError);
  // The reply is still readable in the retired cell: only this producer
  // could post into it again.
  EXPECT_EQ(ring.cell(pos).regs[0], 42u);
  // The same producer reclaims the slot one lap later, with no release of
  // its own: a whole ring fits, and its last cell is the retired one.
  for (std::size_t i = 1; i < XcallRing::kCapacity; ++i) {
    ASSERT_TRUE(post_one(ring, 1, 1, make_regs(i))) << i;
  }
  const std::uint64_t again = post_sync(ring, 43);
  EXPECT_EQ(again, pos + XcallRing::kCapacity);
  EXPECT_EQ(&ring.cell(again), &ring.cell(pos));
  EXPECT_EQ(ring.cell(again).state.load(), kCellPosted);
  EXPECT_FALSE(post_one(ring, 1, 1, make_regs(0)));
}

TEST(XcallRing, UndrainedCellBlocksABatchClaimAcrossIt) {
  // Cells retire in drain order. Index 0 is drained and retired; the 63
  // cells behind it are published but undrained. A 2-run at positions
  // 64..65 reaches the undrained cell at index 1, so the claim is cut to
  // the one free cell in front of it.
  XcallRing ring;
  std::array<ppc::RegSet, XcallRing::kCapacity> regs{};
  ASSERT_EQ(post_many(ring, 1, 1, regs.data(), 1), 1u);
  ASSERT_EQ(ring.drain([](XcallCell&) {}), 1u);
  ASSERT_EQ(post_many(ring, 1, 1, regs.data(), XcallRing::kCapacity - 1),
            XcallRing::kCapacity - 1);
  EXPECT_EQ(post_many(ring, 1, 1, regs.data(), 2), 1u);
  EXPECT_EQ(ring.depth(), XcallRing::kCapacity);
  EXPECT_EQ(post_many(ring, 1, 1, regs.data(), 2), 0u);  // full
  // Draining retires every cell in order: the 2-run fits again.
  EXPECT_EQ(ring.drain([](XcallCell&) {}), XcallRing::kCapacity);
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
  // The consumer retired the slot: a whole ring fits again.
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
}

TEST(XcallRing, ParkedWaiterMissedByTheConsumerWakesOnItsRecheck) {
  // The missed-kick interleaving: the waiter's park CAS lands after the
  // consumer's one load of the state word, so the done store that follows
  // comes with no wake. Here the test thread plays that consumer — a bare
  // done store, no kick — and the parked waiter must still return the done
  // word, found by its bounded re-check sleep.
  XcallRing ring;
  const std::uint64_t pos = post_sync(ring, 1);
  XcallCell& c = ring.cell(pos);
  std::atomic<std::uint32_t> got{0};
  std::thread waiter([&] {
    got.store(wait_complete(c, /*deadline=*/0, /*yield_rounds=*/0, [] {},
                            [] {}),
              std::memory_order_release);
  });
  while (c.state.load(std::memory_order_acquire) != kCellParked) {
    std::this_thread::yield();
  }
  // Let the waiter get from its park CAS into the futex sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint32_t done = kCellDone | static_cast<std::uint32_t>(Status::kOk);
  const auto t0 = std::chrono::steady_clock::now();
  c.state.store(done, std::memory_order_release);
  const auto limit = std::chrono::nanoseconds(100 * kParkRecheckNs);
  while (got.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() - t0 < limit) {
    std::this_thread::yield();
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  const std::uint32_t seen = got.load(std::memory_order_acquire);
  if (seen == 0) kick_waiter(c.state);  // fail, but do not hang the suite
  waiter.join();
  EXPECT_EQ(seen, done) << "a missed kick left the waiter asleep";
  EXPECT_LT(waited, limit);
}

TEST(XcallRing, AbortAndRearmCompletesPublishedCallsAndFreesEverySlot) {
  XcallRing ring;
  const std::uint64_t done = post_sync(ring, 1);
  ring.drain([](XcallCell&) {});  // completed and retired
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
  EXPECT_EQ(ring.ready_head(), nullptr);
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
  Status s = Status::kOk;
  // A warm direct call allocates nothing. The first call creates the
  // target slot's worker on the heap, so it runs before the window.
  ppc::RegSet warm = make_regs(0);
  ASSERT_EQ(rt.call_remote(me, 1, 1, ep, warm), Status::kOk);
  const std::uint64_t heap = heap_allocs_during(
      [&] { s = rt.call_remote(me, /*target=*/1, /*caller=*/1, ep, r); });
  ASSERT_EQ(s, Status::kOk);
  EXPECT_EQ(r[1], 11u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 2u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 2u);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 0u);
  EXPECT_EQ(heap, 0u);
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
  // The first call creates the owner slot's worker; the rest are warm.
  ppc::RegSet first = make_regs(0);
  ASSERT_EQ(rt.call_remote(me, 1, /*caller=*/1, ep, first), Status::kOk);
  int bad = 0;
  const std::uint64_t heap = heap_allocs_during([&] {
    for (Word i = 1; i < 200; ++i) {
      ppc::RegSet r = make_regs(i);
      if (rt.call_remote(me, 1, /*caller=*/1, ep, r) != Status::kOk ||
          r[1] != i + 1) {
        ++bad;
      }
    }
  });
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 200u);
  EXPECT_GT(rt.counters(1).get(obs::Counter::kXcallBatches), 0u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 200u);
  // Neither the posting caller nor the polling owner allocated.
  EXPECT_EQ(heap, 0u);
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
  ppc::RegSet first = make_regs(0);  // creates the served slot's worker
  ASSERT_EQ(rt.call_remote(me, 1, 1, ep, first), Status::kOk);
  int bad = 0;
  const std::uint64_t heap = heap_allocs_during([&] {
    for (Word i = 1; i < 500; ++i) {
      ppc::RegSet r = make_regs(i);
      if (rt.call_remote(me, 1, 1, ep, r) != Status::kOk || r[1] != i + 1) {
        ++bad;
      }
    }
  });
  stop.store(true, std::memory_order_release);
  server.join();
  EXPECT_EQ(bad, 0);
  const auto& c = rt.counters(1);
  // Every call executed remotely, by direct steal or ring cell.
  EXPECT_EQ(c.get(obs::Counter::kCallsRemote), 500u);
  EXPECT_EQ(heap, 0u);
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

TEST(CallRemoteAsync, FullRingRefusesWithOverloaded) {
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
  for (std::size_t i = 0; i < XcallRing::kCapacity; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  // A lap of undrained posts fills the ring: the next post is refused,
  // whatever its retry policy, and books the full ring once.
  CallOptions block;
  block.retry = RetryPolicy::kBlock;
  EXPECT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(0), block),
            Status::kOverloaded);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallRingFull), 1u);
  filled.store(true, std::memory_order_release);
  while (hits.load(std::memory_order_relaxed) <
         static_cast<int>(XcallRing::kCapacity)) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  // Exactly the lap that fit ran; the refused post never did.
  EXPECT_EQ(hits.load(), static_cast<int>(XcallRing::kCapacity));
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote),
            XcallRing::kCapacity);
}

TEST(CallRemoteAsync, SameSlotPostUnderAStealRunsBeforeTheGateIsReturned) {
  // A handler direct-executed on an idle slot posts an async call to that
  // slot's own ring. The thief's post sets the slot's queued word, so its
  // release_gate must drain the ring before it hands the gate back: slot
  // 1 has no owner that would ever poll it.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  int followups = 0;
  const EntryPointId followup =
      rt.bind({.name = "followup"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        ++followups;
        ppc::set_rc(r, Status::kOk);
      });
  const EntryPointId poster =
      rt.bind({.name = "poster"}, 0, [&](RtCtx& ctx, ppc::RegSet& r) {
        ppc::set_rc(r, ctx.runtime().call_async(ctx.slot(), 0, followup,
                                                ppc::RegSet{}));
      });
  ppc::RegSet r = make_regs(0);
  ASSERT_EQ(rt.call_remote(me, /*target=*/1, /*caller=*/1, poster, r),
            Status::kOk);
  EXPECT_EQ(followups, 1);
  EXPECT_EQ(rt.xcall_depth(1), 0u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsAsync), 1u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 2u);
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
  int bad = 0;
  const std::uint64_t heap = heap_allocs_during([&] {
    for (Word i = 0; i < 1000; ++i) {
      ppc::RegSet r = make_regs(i);
      if (rt.call_remote(me, 1, 1, ep, r) != Status::kOk || r[1] != i + 1) {
        ++bad;
      }
    }
  });
  const auto delta = rt.snapshot().delta(before);
  EXPECT_EQ(bad, 0);
  // The invariant the whole layer exists for: a warm cross-slot call takes
  // no locks and performs zero heap allocations, on either side.
  EXPECT_EQ(heap, 0u);
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

  // ... then hit the full ring on every post variant. Async: refused
  // with kOverloaded, one ring_full. Sync fail-fast: ring_full booked even
  // though the call never waits.
  EXPECT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(0)),
            Status::kOverloaded);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallRingFull), 1u);

  CallOptions fail_fast;
  fail_fast.retry = RetryPolicy::kFailFast;
  ppc::RegSet r = make_regs(1);
  EXPECT_EQ(rt.call_remote(me, 1, 1, ep, r, fail_fast), Status::kOverloaded);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallRingFull), 2u);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kRetries), 0u);

  owner.release_and_join();
}

TEST(CallRemoteBatch, FailFastGivesUpOnFullRing) {
  // The batch lane runs the same retry policy as call_remote: fail-fast
  // against a ring nobody drains gives up with kOverloaded at its first
  // failed post, refusing every cell, instead of blocking forever.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  StuckOwner owner(rt);
  for (std::size_t i = 0; i < XcallRing::kCapacity; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  CallOptions fail_fast;
  fail_fast.retry = RetryPolicy::kFailFast;
  std::array<ppc::RegSet, 8> batch;
  for (Word i = 0; i < batch.size(); ++i) batch[i] = make_regs(i);
  EXPECT_EQ(rt.call_remote_batch(me, 1, 1, ep, batch, fail_fast),
            Status::kOverloaded);
  for (const ppc::RegSet& r : batch) {
    EXPECT_EQ(ppc::rc_of(r), Status::kOverloaded);
  }
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kXcallRingFull), 1u);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kRetries), 0u);
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
  ppc::RegSet first = make_regs(0);  // creates the served slot's worker
  ASSERT_EQ(rt.call_remote(me, 1, 1, ep, first, opts), Status::kOk);
  int bad = 0;
  const std::uint64_t heap = heap_allocs_during([&] {
    for (Word i = 1; i < 200; ++i) {
      ppc::RegSet r = make_regs(i);
      // The reply round-trips the cell.
      if (rt.call_remote(me, 1, 1, ep, r, opts) != Status::kOk ||
          r[1] != i + 1) {
        ++bad;
      }
    }
  });
  stop.store(true, std::memory_order_release);
  server.join();
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kDeadlineExceeded), 0u);
  // The deadline wait is still allocation-free once warm.
  EXPECT_EQ(heap, 0u);
}

TEST(CallRemote, ShedsAtWatermark) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  StuckOwner owner(rt);
  rt.set_shed_watermark(8);

  // Fill to the watermark with async posts, then watch both variants shed.
  int posted = 0;
  Status async_shed = Status::kOk;
  Status sync_shed = Status::kOk;
  ppc::RegSet r = make_regs(9);
  const std::uint64_t heap = heap_allocs_during([&] {
    for (std::size_t i = 0; i < 8; ++i) {
      if (rt.call_remote_async(me, 1, 1, ep, make_regs(i)) == Status::kOk) {
        ++posted;
      }
    }
    async_shed = rt.call_remote_async(me, 1, 1, ep, make_regs(9));
    sync_shed = rt.call_remote(me, 1, 1, ep, r);
  });
  EXPECT_EQ(posted, 8);
  EXPECT_EQ(async_shed, Status::kOverloaded);
  EXPECT_EQ(sync_shed, Status::kOverloaded);
  EXPECT_EQ(ppc::rc_of(r), Status::kOverloaded);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kCallsShed), 2u);
  // Neither the queued posts nor the shed calls allocated.
  EXPECT_EQ(heap, 0u);

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

TEST(XcallRing, OneProducerMixingBatchesAndSinglesAgainstADrainingConsumer) {
  // The ring's contract: one producer, one consumer, running concurrently.
  // The producer alternates batched and single posts; the consumer drains
  // as it goes and publishes how many cells it has retired. Every cell
  // arrives in submission order, and a post that began with room in the
  // ring never answers "full". TSan sweeps the relaxed publish of a
  // batch's later cells and the plain-store tail here.
  XcallRing ring;
  constexpr Word kCells = 40'000;
  std::atomic<Word> retired{0};
  std::atomic<int> false_full{0};
  std::thread producer([&] {
    std::array<ppc::RegSet, 8> regs{};
    Word next = 0;
    for (std::size_t round = 0; next < kCells; ++round) {
      const std::size_t want = std::min<std::size_t>(
          round % 2 == 0 ? regs.size() : 1, kCells - next);
      for (std::size_t i = 0; i < want; ++i) regs[i][0] = next + i;
      // Room the consumer has certainly made: it only grows from here.
      const bool room =
          next - retired.load(std::memory_order_acquire) < XcallRing::kCapacity;
      const std::size_t posted = post_many(ring, 1, 1, regs.data(), want);
      if (posted == 0) {
        if (room) false_full.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
      next += posted;
    }
  });
  Word expect = 0;
  while (expect < kCells) {
    const std::size_t n =
        ring.drain([&](XcallCell& c) { EXPECT_EQ(c.regs[0], expect++); });
    retired.store(expect, std::memory_order_release);
    if (n == 0) cpu_relax();
  }
  producer.join();
  EXPECT_EQ(false_full.load(), 0);
  EXPECT_EQ(ring.depth(), 0u);
}

TEST(XcallRing, OverlappingSecondProducerAborts) {
#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
  // A fill callback that posts into its own ring is a second producer
  // inside the first one's claim: fault builds abort with a message.
  XcallRing ring;
  EXPECT_DEATH(ring.try_post(1,
                             [&](XcallCell& c, std::size_t) {
                               c.caller = 1;
                               c.ep = 1;
                               c.deadline = 0;
                               post_one(ring, 2, 1, make_regs(0));
                             }),
               "second producer");
#else
  GTEST_SKIP() << "the overlap check is compiled into fault builds only "
                  "(-DHPPC_FAULT_INJECTION=ON)";
#endif
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
  // The warm batch again, under the heap audit: nothing allocates.
  for (Word i = 0; i < batch.size(); ++i) batch[i][0] = 100 + i;
  Status s = Status::kOk;
  const std::uint64_t heap = heap_allocs_during(
      [&] { s = rt.call_remote_batch(me, 1, /*caller=*/1, ep, batch); });
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(batch[7][1], 108u);
  EXPECT_EQ(heap, 0u);
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
  RegSet warm{};  // one single call first: it creates the owner's worker
  ASSERT_EQ(rt.call_remote(me, 1, 1, ep, warm), Status::kOk);
  Status s = Status::kOk;
  const std::uint64_t heap = heap_allocs_during([&] {
    s = rt.call_remote_batch(me, 1, 1, ep,
                             std::span<RegSet>(batch.data(), kBatch));
  });
  stop.store(true, std::memory_order_release);
  owner.join();
  ASSERT_EQ(s, Status::kOk);
  for (Word i = 0; i < kBatch; ++i) ASSERT_EQ(batch[i][1], i + 1);
  const auto& c = rt.counters(0);
  EXPECT_EQ(c.get(obs::Counter::kXcallPosts), kBatch + 1);
  EXPECT_GE(c.get(obs::Counter::kXcallBatchPosts), 2u);
  EXPECT_EQ(c.get(obs::Counter::kXcallCellsPerBatch), kBatch);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), kBatch + 1);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 0u);
  EXPECT_EQ(heap, 0u);
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
    return rt.call_remote_batch(me, 1, 1, ep, batch);
  };
  for (int warm = 0; warm < 4; ++warm) ASSERT_EQ(run_batch(), Status::kOk);
  const auto before_me = rt.slot_snapshot(me);
  const std::uint64_t before_locks =
      rt.snapshot().get(obs::Counter::kLocksTaken);
  constexpr std::uint64_t kRounds = 64;
  int bad = 0;
  const std::uint64_t heap = heap_allocs_during([&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      if (run_batch() != Status::kOk) ++bad;
    }
  });
  const auto delta = rt.slot_snapshot(me).delta(before_me);
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(heap, 0u);
  EXPECT_EQ(rt.snapshot().get(obs::Counter::kLocksTaken), before_locks);
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
  // reaches them and retires them, without executing them. Then a whole
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
// Finding queued work: owners scan, an unowned slot's queued word
// ---------------------------------------------------------------------------

TEST(QueuedWork, ManyProducersOnePollingConsumerLoseNothing) {
  // Four producers post to a polling owner that finds their cells by
  // scanning its ring heads; an owned target signals nothing, so every
  // posted call must still execute exactly once. TSan target.
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
        // A full ring refuses an async post; the producer retries, so
        // every call is still posted exactly once.
        Status s;
        while ((s = rt.call_remote_async(my, 0, my, ep, make_regs(1))) ==
               Status::kOverloaded) {
          std::this_thread::yield();
        }
        ASSERT_EQ(s, Status::kOk);
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

TEST(QueuedWork, AsyncCellOnAnUnownedSlotRunsBeforeTheNextThiefHandsBack) {
  // Nobody owns slot 1, so the post sets its queued word and the cell
  // waits. The next direct caller runs its own call first, then finds the
  // word set and drains the ring before it hands the gate back.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::vector<Word> order;
  const EntryPointId ep =
      rt.bind({.name = "log"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        order.push_back(r[0]);
        ppc::set_rc(r, Status::kOk);
      });
  ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(1)), Status::kOk);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kReadyMaskSkips), 0u);
  ppc::RegSet r = make_regs(2);
  ASSERT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
  EXPECT_EQ(order, (std::vector<Word>{2, 1}));
  EXPECT_EQ(rt.xcall_depth(1), 0u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 1u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsRemote), 2u);
}

TEST(QueuedWork, OwnerThatGoesIdleWithAnUndrainedCellHandsItToTheNextThief) {
  // The post finds slot 1 owned and signals nothing. Its owner then parks
  // through enter_idle() without polling: the re-check after its fence
  // finds the head cell and sets the queued word, so the next thief
  // drains the cell before it hands the gate back.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::atomic<int> hits{0};
  const EntryPointId ep =
      rt.bind({.name = "adder"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        hits.fetch_add(1, std::memory_order_relaxed);
        r[1] = r[0] + 1;
        ppc::set_rc(r, Status::kOk);
      });
  std::atomic<int> phase{0};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    ASSERT_EQ(s, 1u);
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    rt.enter_idle(s);  // no poll: the cell is still in the ring
  });
  while (phase.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  // The post has returned, so its head cell is published.
  ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(1)), Status::kOk);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kReadyMaskSkips), 1u);
  phase.store(2, std::memory_order_release);
  owner.join();
  EXPECT_EQ(hits.load(), 0);
  ppc::RegSet r = make_regs(4);
  ASSERT_EQ(rt.call_remote(me, 1, 1, ep, r), Status::kOk);
  EXPECT_EQ(r[1], 5u);
  EXPECT_EQ(hits.load(), 2);
  EXPECT_EQ(rt.xcall_depth(1), 0u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 1u);
}

TEST(QueuedWork, ReadyMaskSkipsCountsPostsToAnOwnedSlot) {
  // ready_mask_skips books each cross-slot post that found its target
  // owned and so stored nothing; a post to an unowned slot sets the
  // queued word instead and books nothing.
  Runtime rt(3);
  const SlotId me = rt.register_thread();
  std::atomic<int> hits{0};
  const EntryPointId ep =
      rt.bind({.name = "tally"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        hits.fetch_add(1, std::memory_order_relaxed);
        ppc::set_rc(r, Status::kOk);
      });
  std::atomic<int> phase{0};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    ASSERT_EQ(s, 1u);
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    while (rt.poll(s) > 0) {
    }
    rt.enter_idle(s);
  });
  while (phase.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  for (Word i = 0; i < 3; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, make_regs(i)), Status::kOk);
  }
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kReadyMaskSkips), 3u);
  // Slot 2 was never registered: the post signals it and skips nothing.
  ASSERT_EQ(rt.call_remote_async(me, 2, 1, ep, make_regs(3)), Status::kOk);
  EXPECT_EQ(rt.counters(me).get(obs::Counter::kReadyMaskSkips), 3u);
  phase.store(2, std::memory_order_release);
  owner.join();
  EXPECT_EQ(hits.load(), 3);
  EXPECT_EQ(rt.xcall_depth(1), 0u);
}

TEST(QueuedWork, PostFromAStolenNeverRegisteredSlotReachesThePollingOwner) {
  // A handler direct-executed on slot 2, which no thread ever registered,
  // posts to slot 0. Its cell sits in slot 0's ring 2: the owner's scan
  // covers every slot that has posted, not only the registered ones, so
  // its next poll runs the cell.
  Runtime rt(3);
  const SlotId me = rt.register_thread();
  int followups = 0;
  const EntryPointId followup =
      rt.bind({.name = "followup"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        ++followups;
        ppc::set_rc(r, Status::kOk);
      });
  const EntryPointId poster =
      rt.bind({.name = "poster"}, 0, [&](RtCtx& ctx, ppc::RegSet& r) {
        ppc::set_rc(r, ctx.runtime().call_remote_async(
                           ctx.slot(), me, 1, followup, ppc::RegSet{}));
      });
  ppc::RegSet r = make_regs(0);
  ASSERT_EQ(rt.call_remote(me, /*target=*/2, /*caller=*/1, poster, r),
            Status::kOk);
  EXPECT_EQ(followups, 0);
  EXPECT_EQ(rt.counters(2).get(obs::Counter::kReadyMaskSkips), 1u);
  EXPECT_EQ(rt.poll(me), 1u);
  EXPECT_EQ(followups, 1);
}

#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
TEST(QueuedWork, IdleRecheckServesACallPostedInsideTheWindow) {
  // The idle handshake's window opens when a producer loads the target's
  // gate as owned and skips its signal, and closes at the owner's
  // re-check in enter_idle(). "rt.xcall.idle.recheck" holds it open past
  // the owner's fence: the gate is idle, so the waiter's help steals it,
  // but nothing is queued yet and it hands the gate back undrained. Only
  // the re-check's signal gets the call served, by the next help; without
  // the re-check the waiter runs into its deadline.
  Runtime rt(3);
  ASSERT_EQ(rt.register_thread(), 0u);
  const char* const kSeam = "rt.xcall.idle.recheck";
  const std::uint64_t before = fault::injected(kSeam);
  std::atomic<std::uint64_t> fired_at_service{0};
  const EntryPointId ep =
      rt.bind({.name = "stamp"}, 0, [&](RtCtx&, ppc::RegSet& r) {
        fired_at_service.store(fault::injected(kSeam) - before,
                               std::memory_order_relaxed);
        r[1] = r[0] + 1;
        ppc::set_rc(r, Status::kOk);
      });
  std::atomic<int> phase{0};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    ASSERT_EQ(s, 1u);
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    rt.enter_idle(s);  // no poll: the cell is still in the ring
  });
  while (phase.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  std::atomic<SlotId> caller_slot{0};
  std::atomic<Status> result{Status::kOk};
  ppc::RegSet r = make_regs(7);
  std::thread caller([&] {
    const SlotId s = rt.register_thread();
    caller_slot.store(s, std::memory_order_release);
    CallOptions opts;
    opts.deadline_cycles = 4'000'000'000;  // ~2 s: a bound, not a wait
    result.store(rt.call_remote(s, 1, 2, ep, r, opts),
                 std::memory_order_release);
  });
  // The skip is booked after the publish and the gate load: the head cell
  // is published and its producer has passed its signal.
  while (caller_slot.load(std::memory_order_acquire) == 0 ||
         rt.counters(caller_slot.load()).get(obs::Counter::kReadyMaskSkips) ==
             0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(fault::arm(kSeam, "oneshot,delay=4000000"));
  phase.store(2, std::memory_order_release);
  caller.join();
  owner.join();
  fault::disarm(kSeam);
  EXPECT_EQ(result.load(), Status::kOk);
  EXPECT_EQ(r[1], 8u);
  // Served only once the owner had reached the seam.
  EXPECT_EQ(fired_at_service.load(), 1u);
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
  // parked bit and kick the waiter (a missed kick would only cost the
  // waiter a bounded re-check sleep, so the counters are the evidence).
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
    EXPECT_EQ(s, 2u);
    ppc::RegSet r = make_regs(1);
    result.store(rt.call_remote(s, 1, 2, ep, r), std::memory_order_release);
  });
  // Deterministic ordering: the kill happens only once the cell is
  // published (the caller books its post after the publish), which also
  // means the caller passed its pre-screen while alive.
  while (rt.counters(2).get(obs::Counter::kXcallPosts) == 0) {
    std::this_thread::yield();
  }
  ASSERT_EQ(rt.hard_kill(ep), Status::kOk);
  owner.release_and_join();  // drain: re-resolve fails -> kCallAborted
  caller.join();
  EXPECT_EQ(result.load(), Status::kCallAborted);
}

// Frame entries obey the typed kill rules (§4.5.2): a hard kill racing
// call_remote_frame traffic to a polling owner lets an admitted call end
// only with kOk or kCallAborted, and every call made once the kill has
// returned fails its screen with kNoSuchEntryPoint. One caller, so at most
// one call is in flight when the kill lands.
TEST(CallRemote, HardKillRacingFrameTrafficToAPollingOwner) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::atomic<std::uint64_t> runs{0};
  const FrameServiceId fid = rt.bind_frame(
      /*program=*/0,
      [](void* self, FrameCtx&, CallFrame& f) {
        static_cast<std::atomic<std::uint64_t>*>(self)->fetch_add(1);
        f.w[1] = f.w[0] + 1;
        return Status::kOk;
      },
      &runs);
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
  std::atomic<int> oks{0};
  std::atomic<bool> killed{false};
  std::thread killer([&] {
    while (oks.load(std::memory_order_acquire) < 100) {
      std::this_thread::yield();
    }
    EXPECT_EQ(rt.hard_kill(fid), Status::kOk);
    killed.store(true, std::memory_order_release);
  });

  int aborted = 0;
  int refused = 0;
  int after_kill = 0;
  bool ended = false;  // a call has failed: no later call may succeed
  while (after_kill < 64) {
    const bool late = killed.load(std::memory_order_acquire);
    CallFrame f = make_frame(fid, 1);
    f.w[0] = 41;
    const Status s = rt.call_remote_frame(me, 1, /*caller=*/1, f);
    ASSERT_EQ(frame_rc_of(f.op), s);
    if (late) {
      ASSERT_EQ(s, Status::kNoSuchEntryPoint);
      ++after_kill;
      continue;
    }
    if (s == Status::kOk) {
      ASSERT_FALSE(ended) << "a call succeeded after one failed";
      ASSERT_EQ(f.w[1], 42u);
      oks.fetch_add(1, std::memory_order_release);
      continue;
    }
    ended = true;
    if (s == Status::kCallAborted) {
      ++aborted;  // admitted before the kill, drained after it
    } else {
      ASSERT_EQ(s, Status::kNoSuchEntryPoint);  // screened after it
      ++refused;
    }
  }
  killer.join();
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_LE(aborted, 1);
  EXPECT_EQ(runs.load(), static_cast<std::uint64_t>(oks.load()));
  EXPECT_EQ(rt.hard_kill(fid), Status::kNoSuchEntryPoint);
}

}  // namespace
}  // namespace hppc::rt
