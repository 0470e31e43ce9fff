// repl::Replicated<T>: the host seqlock replica primitive, and ReplHub's
// propagation of writes through the runtime's xcall rings.
#include "repl/replicated.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "repl/repl_hub.h"
#include "rt/runtime.h"

namespace hppc::repl {
namespace {

using obs::Counter;

TEST(Replicated, InitialValueOnEverySlot) {
  Replicated<std::uint64_t> val(4, 7);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(val.read(s), 7u);
    EXPECT_EQ(val.replica_version(s), 0u);
  }
  EXPECT_EQ(val.version(), 0u);
}

TEST(Replicated, InlineWritePublishesEveryReplica) {
  // Without a propagator the writer refreshes all replicas itself.
  Replicated<std::uint64_t> val(4, 1);
  val.write(2, [](std::uint64_t& v) {
    v = 9;
    return true;
  });
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(val.read(s), 9u);
    EXPECT_EQ(val.replica_version(s), 1u);
  }
  EXPECT_EQ(val.version(), 1u);
}

TEST(Replicated, CountersBookReadsAndWrites) {
  Replicated<std::uint64_t> val(2, 0);
  obs::SlotCounters c0, c1;
  val.attach_counters(0, &c0);
  val.attach_counters(1, &c1);

  EXPECT_EQ(val.read(0), 0u);
  EXPECT_EQ(c0.get(Counter::kReplReads), 1u);
  EXPECT_EQ(c0.get(Counter::kReplSeqRetries), 0u);
  EXPECT_EQ(c0.get(Counter::kLocksTaken), 0u);  // the read path is lock-free
  EXPECT_EQ(c0.get(Counter::kSharedLinesTouched), 0u);

  val.write(1, [](std::uint64_t& v) {
    v = 5;
    return true;
  });
  EXPECT_EQ(c1.get(Counter::kReplInvalidations), 2u);  // both replicas
  EXPECT_EQ(c1.get(Counter::kLocksTaken), 1u);         // the master mutex
  EXPECT_EQ(c1.get(Counter::kSharedLinesTouched), 1u);  // slot 0's line
  EXPECT_EQ(c0.get(Counter::kLocksTaken), 0u);
}

TEST(Replicated, RetryBoundFallsBackToLockedMaster) {
  // Park the replica mid-update (odd sequence word): the reader must not
  // spin forever — after kMaxSeqRetries it reads the master under its lock.
  Replicated<std::uint64_t> val(1, 7);
  obs::SlotCounters c;
  val.attach_counters(0, &c);

  ReplicatedTestAccess::begin_stall(val, 0);
  EXPECT_EQ(val.read(0), 7u);  // correct value, via the fallback
  EXPECT_EQ(c.get(Counter::kReplFallbackLocked), 1u);
  EXPECT_EQ(c.get(Counter::kLocksTaken), 1u);
  EXPECT_EQ(c.get(Counter::kReplSeqRetries),
            static_cast<std::uint64_t>(kMaxSeqRetries));
  EXPECT_EQ(c.get(Counter::kReplReads), 1u);

  ReplicatedTestAccess::end_stall(val, 0);
  EXPECT_EQ(val.read(0), 7u);  // lock-free again
  EXPECT_EQ(c.get(Counter::kReplFallbackLocked), 1u);
  EXPECT_EQ(c.get(Counter::kLocksTaken), 1u);
  EXPECT_EQ(c.get(Counter::kReplReads), 2u);
}

struct Pair {
  std::uint64_t a = 0;
  std::uint64_t b = ~std::uint64_t{0};  // invariant: b == ~a, always
};

TEST(Replicated, TornReadsNeverObserved) {
  // A writer hammers {a, ~a} pairs while a reader validates the invariant
  // on every read: any torn copy (half old, half new) breaks it. Run under
  // TSan this also proves the seqlock protocol is data-race-free.
  Replicated<Pair> val(2);
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 20000; ++i) {
      val.write(1, [i](Pair& p) {
        p.a = i;
        p.b = ~i;
        return true;
      });
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t reads = 0;
  while (!done.load(std::memory_order_acquire)) {
    const Pair p = val.read(0);
    ASSERT_EQ(p.b, ~p.a) << "torn read after " << reads << " reads";
    ++reads;
  }
  writer.join();
  const Pair last = val.read(0);
  EXPECT_EQ(last.a, 20000u);
  EXPECT_EQ(last.b, ~std::uint64_t{20000});
}

TEST(Replicated, PropagatorReplacesInlinePublish) {
  Replicated<std::uint64_t> val(4, 1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> posts;
  val.set_propagator([&](std::uint32_t writer, std::uint32_t target,
                         std::uint64_t version) {
    posts.emplace_back(writer, target);
    EXPECT_EQ(version, 1u);
  });

  val.write(1, [](std::uint64_t& v) {
    v = 2;
    return true;
  });
  ASSERT_EQ(posts.size(), 3u);  // every slot but the writer
  for (const auto& [w, t] : posts) {
    EXPECT_EQ(w, 1u);
    EXPECT_NE(t, 1u);
  }
  EXPECT_EQ(val.read(1), 2u);             // writer's replica: inline
  EXPECT_EQ(val.read(0), 1u);             // not yet pulled: bounded-stale
  EXPECT_EQ(val.replica_version(0), 0u);
  val.pull(0);
  EXPECT_EQ(val.read(0), 2u);
  EXPECT_EQ(val.replica_version(0), 1u);
}

TEST(Replicated, UnchangedWritePublishesNothing) {
  // A mutation that reports no change leaves the record's version, every
  // replica and the propagator alone; only the master mutex is booked.
  Replicated<std::uint64_t> val(4, 3);
  std::vector<obs::SlotCounters> c(4);
  for (std::uint32_t s = 0; s < 4; ++s) val.attach_counters(s, &c[s]);
  std::uint32_t propagated = 0;
  val.set_propagator([&](std::uint32_t, std::uint32_t, std::uint64_t) {
    ++propagated;
  });

  val.write(1, [](std::uint64_t& v) { return v != 3; });
  EXPECT_EQ(val.version(), 0u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(val.replica_version(s), 0u) << "slot " << s;
  }
  EXPECT_EQ(propagated, 0u);
  EXPECT_EQ(c[1].get(Counter::kReplInvalidations), 0u);
  EXPECT_EQ(c[1].get(Counter::kLocksTaken), 1u);

  // A changing write still reaches every replica: the writer's inline,
  // the others through the propagator and their pull.
  val.write(1, [](std::uint64_t& v) {
    v = 4;
    return true;
  });
  EXPECT_EQ(val.version(), 1u);
  EXPECT_EQ(propagated, 3u);
  EXPECT_EQ(c[1].get(Counter::kReplInvalidations), 4u);
  EXPECT_EQ(c[1].get(Counter::kLocksTaken), 2u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    if (s != 1) val.pull(s);
    EXPECT_EQ(val.read(s), 4u) << "slot " << s;
    EXPECT_EQ(val.replica_version(s), 1u) << "slot " << s;
  }
}

TEST(ReplHub, WriteBurstPostsOneNudgePerSlot) {
  // Nudges are deduplicated per (object, slot): a burst of writes to a
  // never-draining slot leaves exactly one cell in its ring.
  rt::Runtime rt(2);
  const rt::SlotId me = rt.register_thread();
  Replicated<std::uint64_t> val(rt.slots(), 0);
  ReplHub hub(rt);
  hub.manage(val);

  const auto before = rt.slot_snapshot(me);
  for (std::uint64_t i = 1; i <= 16; ++i) {
    val.write(me, [i](std::uint64_t& v) {
      v = i;
      return true;
    });
  }
  const auto delta = rt.slot_snapshot(me).delta(before);
  EXPECT_EQ(delta.get(Counter::kXcallPosts), 1u);
  EXPECT_EQ(val.read(me), 16u);
  // Slot 1 never drained: stale by the ring's liveness contract.
  EXPECT_EQ(val.replica_version(1), 0u);
}

TEST(ReplHub, NudgeRefreshesOwnerAtDrain) {
  rt::Runtime rt(2);
  const rt::SlotId me = rt.register_thread();
  Replicated<std::uint64_t> val(rt.slots(), 7);
  ReplHub hub(rt);
  hub.manage(val);

  std::atomic<bool> stop{false};
  std::thread owner([&] {
    const rt::SlotId s = rt.register_thread();
    rt.serve(s, stop);
  });

  val.write(me, [](std::uint64_t& v) {
    v = 42;
    return true;
  });
  for (int i = 0; i < 20000 && val.replica_version(1) < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(val.replica_version(1), 1u);
  EXPECT_EQ(val.version(), 1u);
}

TEST(ReplHub, RefusedNudgeIsRetriedByTheNextWrite) {
  // A nudge the target's ring refuses (full) must not leave the pending
  // flag set: the next write nudges that slot again and refreshes it.
  rt::Runtime rt(2);
  const rt::SlotId me = rt.register_thread();
  Replicated<std::uint64_t> val(rt.slots(), 0);
  ReplHub hub(rt);
  hub.manage(val);
  const EntryPointId noop = rt.bind(
      {.name = "noop"}, 0, [](rt::RtCtx&, rt::RegSet& r) {
        ppc::set_rc(r, Status::kOk);
      });

  // Slot 1's owner holds its gate and does not drain until told to, so
  // posts from this slot stay in the me -> 1 ring.
  std::atomic<bool> drain{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const rt::SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!drain.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();
  for (std::size_t i = 0; i < rt::XcallRing::kCapacity; ++i) {
    ASSERT_EQ(rt.call_remote_async(me, 1, 0, noop, rt::RegSet{}), Status::kOk);
  }

  // The write's nudge finds the ring full and is refused.
  val.write(me, [](std::uint64_t& v) {
    v = 1;
    return true;
  });
  EXPECT_EQ(rt.counters(me).get(Counter::kXcallRingFull), 1u);

  // Unstick the owner and let it drain the lap: no refresh was queued.
  drain.store(true, std::memory_order_release);
  while (rt.xcall_depth(1) != 0) std::this_thread::yield();
  EXPECT_EQ(val.replica_version(1), 0u);

  // The next write nudges slot 1 again, and its drain refreshes it.
  val.write(me, [](std::uint64_t& v) {
    v = 2;
    return true;
  });
  for (int i = 0; i < 20000 && val.replica_version(1) < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(val.replica_version(1), 2u);
  EXPECT_EQ(val.read(1), 2u);
}

TEST(ReplHubDeathTest, SlotlessWriteToAHubManagedObjectAsserts) {
  // A hub posts each nudge from the writer's slot; a writer without one
  // would post into rings whose single producer is another thread.
  rt::Runtime rt(2);
  (void)rt.register_thread();
  Replicated<std::uint64_t> val(rt.slots(), 0);
  ReplHub hub(rt);
  hub.manage(val);
  EXPECT_DEATH(val.write(kNoSlot,
                         [](std::uint64_t& v) {
                           v = 1;
                           return true;
                         }),
               "writers that own a slot");
}

}  // namespace
}  // namespace hppc::repl
