// RequestCtx end to end: budget inheritance (clamp, never extend) across
// nested calls, cooperative and sweeping cancellation, traffic-class
// admission/drain ordering, and the frame lane's admission-only contract.
// The races (cancel-vs-completion, cancel-vs-park, cancel mid-batch) run
// under TSan in the tsan-rt and fault-tsan CI jobs.
#include "rt/request_ctx.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <span>
#include <thread>

#include "common/tsc.h"
#include "ppc/regs.h"
#include "rt/frame_abi.h"
#include "rt/kv_service.h"
#include "rt/runtime.h"
#include "rt/xcall.h"

namespace hppc::rt {
namespace {

using obs::Counter;

ppc::RegSet make_regs(Word w0) {
  ppc::RegSet r{};
  r[0] = w0;
  return r;
}

EntryPointId bind_adder(Runtime& rt, const char* name = "adder") {
  return rt.bind({.name = name}, /*program=*/700,
                 [](RtCtx&, ppc::RegSet& regs) {
                   regs[1] = regs[0] + 1;
                   ppc::set_rc(regs, Status::kOk);
                 });
}

/// A registered slot whose owner holds the gate (kOwner) without polling
/// until released — posted cells sit in the ring, help_drain cannot steal.
class HeldSlot {
 public:
  explicit HeldSlot(Runtime& rt) : rt_(rt) {
    thread_ = std::thread([this] {
      slot_.store(rt_.register_thread(), std::memory_order_release);
      up_.store(true, std::memory_order_release);
      while (!poll_now_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (rt_.poll(slot()) > 0) {
      }
      while (!release_.load(std::memory_order_acquire)) {
        rt_.poll(slot());
        std::this_thread::yield();
      }
      while (rt_.poll(slot()) > 0) {
      }
      rt_.enter_idle(slot());
    });
    while (!up_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  SlotId slot() const { return slot_.load(std::memory_order_acquire); }
  void poll_now() { poll_now_.store(true, std::memory_order_release); }
  void release_and_join() {
    poll_now_.store(true, std::memory_order_release);
    release_.store(true, std::memory_order_release);
    thread_.join();
  }

 private:
  Runtime& rt_;
  std::thread thread_;
  std::atomic<SlotId> slot_{0};
  std::atomic<bool> up_{false};
  std::atomic<bool> poll_now_{false};
  std::atomic<bool> release_{false};
};

// ---------------------------------------------------------------------------
// Budget arithmetic
// ---------------------------------------------------------------------------

TEST(RequestCtx, ClampTightensNeverExtends) {
  EXPECT_EQ(RequestCtx::clamp_deadline(0, 0), 0u);
  EXPECT_EQ(RequestCtx::clamp_deadline(100, 0), 100u);
  EXPECT_EQ(RequestCtx::clamp_deadline(0, 50), 50u);
  EXPECT_EQ(RequestCtx::clamp_deadline(100, 50), 50u);   // tighten: ok
  EXPECT_EQ(RequestCtx::clamp_deadline(100, 500), 100u); // extend: clamped
}

TEST(RequestCtx, WithBudgetConvertsRelativeOnceAndClamps) {
  CallOptions opts;
  // No bound on either side.
  EXPECT_EQ(opts.with_budget(0), 0u);
  // Inherited only: passes through untouched.
  EXPECT_EQ(opts.with_budget(12345), 12345u);
  // Relative only: lands at now + relative (within a generous skid).
  opts.deadline_cycles = 1'000'000;
  const std::uint64_t t0 = host_cycles();
  const std::uint64_t abs = opts.with_budget(0);
  EXPECT_GE(abs, t0 + 1'000'000);
  EXPECT_LT(abs, t0 + 1'000'000 + 100'000'000);
  // Both: an inherited bound tighter than now+relative wins.
  EXPECT_EQ(opts.with_budget(1), 1u);
}

TEST(RequestCtx, ActiveAndExpiredProbes) {
  RequestCtx req;
  EXPECT_FALSE(req.active());
  EXPECT_FALSE(req.expired(host_cycles()));
  req.traffic_class = TrafficClass::kBulk;
  EXPECT_TRUE(req.active());
  req = RequestCtx{};
  req.abs_deadline_cycles = 1;  // the distant past
  EXPECT_TRUE(req.active());
  EXPECT_TRUE(req.expired(host_cycles()));
}

TEST(RequestCtx, CellPackingRoundTrips) {
  const EntryPointId wire =
      cell_pack_ep(/*ep=*/513, /*token_idx=*/0x1abc, /*bulk=*/true);
  EXPECT_EQ(cell_ep(wire), 513u);
  EXPECT_EQ(cell_token_idx(wire), 0x1abcu);
  EXPECT_TRUE(cell_is_bulk(wire));
  EXPECT_EQ(wire & kFrameCellEp, 0u);  // never collides with the frame bit
  const EntryPointId plain = cell_pack_ep(7, 0, false);
  EXPECT_EQ(plain, 7u);  // the no-context wire word IS the ep
}

// ---------------------------------------------------------------------------
// Inheritance and nested propagation
// ---------------------------------------------------------------------------

// The acceptance test: a root whose budget expires mid-handler makes every
// not-yet-executed nested call in the tree fail, without executing it.
TEST(RequestCtxPropagation, ExpiredRootStopsNestedCalls) {
  Runtime rt(3);
  const SlotId me = rt.register_thread();
  const EntryPointId leaf_local = bind_adder(rt, "leaf-local");
  const EntryPointId leaf_remote = bind_adder(rt, "leaf-remote");

  std::atomic<int> leaf_executions{0};
  const EntryPointId counting_leaf = rt.bind(
      {.name = "counting-leaf"}, 700, [&](RtCtx&, ppc::RegSet& regs) {
        leaf_executions.fetch_add(1, std::memory_order_relaxed);
        ppc::set_rc(regs, Status::kOk);
      });

  std::atomic<Status> nested_local{Status::kOk};
  std::atomic<Status> nested_remote{Status::kOk};
  std::atomic<Status> nested_counting{Status::kOk};
  std::atomic<bool> probe_fired{false};
  std::atomic<bool> outer_started{false};
  const EntryPointId outer = rt.bind(
      {.name = "outer"}, 700, [&](RtCtx& ctx, ppc::RegSet& regs) {
        outer_started.store(true, std::memory_order_release);
        // Burn the inherited budget via the cooperative probe — this is
        // also the probe's functional test.
        const std::uint64_t spin_limit = host_cycles() + 2'000'000'000ull;
        while (!ctx.cancellation_requested() && host_cycles() < spin_limit) {
        }
        probe_fired.store(ctx.cancellation_requested(),
                          std::memory_order_relaxed);
        // Every nested call now refuses at its seam.
        ppc::RegSet r1 = make_regs(1);
        nested_local.store(ctx.call(leaf_local, r1),
                           std::memory_order_relaxed);
        ppc::RegSet r2 = make_regs(2);
        nested_remote.store(
            ctx.runtime().call_remote(ctx.slot(), /*target=*/2, 700,
                                      leaf_remote, r2),
            std::memory_order_relaxed);
        ppc::RegSet r3 = make_regs(3);
        nested_counting.store(ctx.call(counting_leaf, r3),
                              std::memory_order_relaxed);
        // Hold well past the root's deadline before completing so the
        // caller deterministically abandons (the completion would
        // otherwise race the caller's expiry check).
        const std::uint64_t hold = host_cycles() + 30'000'000ull;
        while (host_cycles() < hold) {
        }
        ppc::set_rc(regs, Status::kOk);
      });

  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread server([&] {
    const SlotId s = rt.register_thread();
    EXPECT_EQ(s, 1u);
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) rt.poll(s);
    while (rt.poll(s) > 0) {
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  CallOptions opts;
  opts.deadline_cycles = 3'000'000;  // enough to be drained, not to finish
  // On a loaded host the budget can expire before the server thread ever
  // drains the cell; the drain-side screen then (correctly) refuses the
  // call without running the handler — a different seam than this test
  // targets, and one that would leave nested_counting unwritten forever.
  // Retry with a doubled runway until the handler actually starts.
  Status root = Status::kOk;
  for (int attempt = 0; !outer_started.load(std::memory_order_acquire);
       ++attempt) {
    ASSERT_LT(attempt, 16) << "outer handler never drained before expiry";
    ppc::RegSet regs = make_regs(0);
    root = rt.call_remote(me, 1, 700, outer, regs, opts);
    // Stay far below the handler's 2e9-cycle burn cap so the budget
    // always expires inside the handler once it runs.
    if (opts.deadline_cycles < 200'000'000ull) opts.deadline_cycles *= 2;
  }
  EXPECT_EQ(root, Status::kDeadlineExceeded);

  // Wait until the handler (which outlives the caller's abandonment) has
  // published its nested statuses.
  while (nested_counting.load(std::memory_order_relaxed) == Status::kOk) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  server.join();

  EXPECT_TRUE(probe_fired.load());
  EXPECT_EQ(nested_local.load(), Status::kDeadlineExceeded);
  EXPECT_EQ(nested_remote.load(), Status::kDeadlineExceeded);
  EXPECT_EQ(nested_counting.load(), Status::kDeadlineExceeded);
  EXPECT_EQ(leaf_executions.load(), 0);  // never executed, not executed-late
}

TEST(RequestCtxPropagation, NestedOptionsTightenButNeverExtend) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);

  // Ambient budget far in the future; per-call options even further. The
  // effective bound must be the ambient one — booked as inherited.
  RequestCtx req;
  req.abs_deadline_cycles = host_cycles() + 2'000'000'000ull;
  rt.set_request_ctx(me, req);
  const auto before = rt.slot_snapshot(me);
  ppc::RegSet r = make_regs(1);
  CallOptions opts;
  opts.deadline_cycles = 200'000'000'000ull;  // would extend: must clamp
  EXPECT_EQ(rt.call_remote(me, 1, 700, ep, r, opts), Status::kOk);
  const auto delta = rt.slot_snapshot(me).delta(before);
  EXPECT_GE(delta.get(Counter::kDeadlineInherited), 1u);
  rt.clear_request_ctx(me);
}

TEST(RequestCtxPropagation, ExpiredAmbientScreensLocalAndRemoteCalls) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);

  RequestCtx req;
  req.abs_deadline_cycles = 1;  // the distant past
  rt.set_request_ctx(me, req);
  ppc::RegSet r = make_regs(1);
  EXPECT_EQ(rt.call(me, 700, ep, r), Status::kDeadlineExceeded);
  EXPECT_EQ(ppc::rc_of(r), Status::kDeadlineExceeded);
  r = make_regs(2);
  EXPECT_EQ(rt.call_remote(me, 1, 700, ep, r), Status::kDeadlineExceeded);
  EXPECT_EQ(ppc::rc_of(r), Status::kDeadlineExceeded);
  rt.clear_request_ctx(me);
  // Screen is ambient-only: with the context cleared the same calls pass.
  r = make_regs(3);
  EXPECT_EQ(rt.call(me, 700, ep, r), Status::kOk);
}

TEST(RequestCtxPropagation, AsyncDeferredCallsCarryTheContext) {
  Runtime rt(1);
  const SlotId me = rt.register_thread();
  std::atomic<int> executed{0};
  const EntryPointId ep = rt.bind(
      {.name = "tally"}, 700, [&](RtCtx&, ppc::RegSet& regs) {
        executed.fetch_add(1, std::memory_order_relaxed);
        ppc::set_rc(regs, Status::kOk);
      });

  RequestCtx req;
  req.abs_deadline_cycles = 1;  // expired before the poll can run it
  rt.set_request_ctx(me, req);
  ASSERT_EQ(rt.call_async(me, 700, ep, make_regs(1)), Status::kOk);
  rt.clear_request_ctx(me);
  const auto before = rt.slot_snapshot(me);
  rt.poll(me);
  const auto delta = rt.slot_snapshot(me).delta(before);
  EXPECT_EQ(executed.load(), 0);
  EXPECT_GE(delta.get(Counter::kDeadlineExceeded), 1u);
  // A context-free async call still executes.
  ASSERT_EQ(rt.call_async(me, 700, ep, make_regs(2)), Status::kOk);
  rt.poll(me);
  EXPECT_EQ(executed.load(), 1);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(Cancellation, TokensAreDistinctAndFlagsLatch) {
  Runtime rt(1);
  const CancelToken a = rt.cancel_token_create();
  const CancelToken b = rt.cancel_token_create();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_FALSE(rt.cancel_requested(a));
  EXPECT_FALSE(rt.cancel_requested(0));
  rt.cancel(a);
  EXPECT_TRUE(rt.cancel_requested(a));
  EXPECT_FALSE(rt.cancel_requested(b));
  EXPECT_GE(rt.shared_counters().get(Counter::kCancelRequests), 1u);
}

TEST(Cancellation, CancelledTokenRefusesAtAdmission) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  const CancelToken token = rt.cancel_token_create();
  rt.cancel(token);

  CallOptions opts;
  opts.cancel_token = token;
  ppc::RegSet r = make_regs(1);
  EXPECT_EQ(rt.call_remote(me, 1, 700, ep, r, opts), Status::kCallAborted);
  EXPECT_EQ(ppc::rc_of(r), Status::kCallAborted);
  EXPECT_GE(rt.counters(me).get(Counter::kCallsCancelled), 1u);
  // Ambient tokens screen local calls too.
  RequestCtx req;
  req.cancel_token = token;
  rt.set_request_ctx(me, req);
  r = make_regs(2);
  EXPECT_EQ(rt.call(me, 700, ep, r), Status::kCallAborted);
  rt.clear_request_ctx(me);
}

// Cancel of cells already in a ring: the drain refuses them and kicks the
// waiting caller with kCallAborted (cancel-vs-park protocol).
TEST(Cancellation, CancelCompletesInRingCellAndKicksWaiter) {
  Runtime rt(3);
  rt.register_thread();  // main: slot 0 (observer only)
  const EntryPointId ep = bind_adder(rt);
  const CancelToken token = rt.cancel_token_create();
  HeldSlot server(rt);  // slot 1: gate held, not polling yet

  std::atomic<Status> result{Status::kOk};
  std::atomic<bool> caller_up{false};
  std::thread caller([&] {
    const SlotId s = rt.register_thread();
    caller_up.store(true, std::memory_order_release);
    CallOptions opts;
    opts.cancel_token = token;
    ppc::RegSet r = make_regs(1);
    result.store(rt.call_remote(s, server.slot(), 700, ep, r, opts),
                 std::memory_order_release);
  });
  while (!caller_up.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Wait until the cell is posted, cancel, then let the owner drain.
  while (rt.xcall_depth(server.slot()) == 0) std::this_thread::yield();
  rt.cancel(token);
  server.poll_now();
  caller.join();
  EXPECT_EQ(result.load(std::memory_order_acquire), Status::kCallAborted);
  server.release_and_join();
}

TEST(Cancellation, CancelOfBatchMidDrainAbortsRemainingCells) {
  Runtime rt(3);
  rt.register_thread();  // main: slot 0
  const EntryPointId ep = bind_adder(rt);
  const CancelToken token = rt.cancel_token_create();
  HeldSlot server(rt);  // slot 1

  std::array<ppc::RegSet, 24> batch{};
  for (Word i = 0; i < batch.size(); ++i) batch[i][0] = i;
  std::atomic<Status> result{Status::kOk};
  std::thread caller([&] {
    const SlotId s = rt.register_thread();
    CallOptions opts;
    opts.cancel_token = token;
    result.store(rt.call_remote_batch(s, server.slot(), 700, ep, batch, opts),
                 std::memory_order_release);
  });
  while (rt.xcall_depth(server.slot()) < batch.size()) {
    std::this_thread::yield();
  }
  rt.cancel(token);  // every queued cell now refuses at the drain
  server.poll_now();
  caller.join();
  EXPECT_EQ(result.load(std::memory_order_acquire), Status::kCallAborted);
  for (const ppc::RegSet& r : batch) {
    EXPECT_EQ(ppc::rc_of(r), Status::kCallAborted);
  }
  server.release_and_join();
}

// Cancel-vs-completion CAS race: cancel fires concurrently with the server
// executing the call. Either outcome is legal; nothing may hang.
// TSan-checked in CI.
TEST(Cancellation, CancelVersusCompletionRaceIsClean) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);

  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread server([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) rt.poll(s);
    while (rt.poll(s) > 0) {
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  int aborted = 0;
  int completed = 0;
  for (int i = 0; i < 400; ++i) {
    const CancelToken token = rt.cancel_token_create();
    std::thread canceller([&rt, token] { rt.cancel(token); });
    CallOptions opts;
    opts.cancel_token = token;
    ppc::RegSet r = make_regs(static_cast<Word>(i));
    const Status s = rt.call_remote(me, 1, 700, ep, r, opts);
    canceller.join();
    if (s == Status::kCallAborted) {
      ++aborted;
    } else {
      ASSERT_EQ(s, Status::kOk);
      EXPECT_EQ(r[1], static_cast<Word>(i) + 1);
      ++completed;
    }
  }
  stop.store(true, std::memory_order_release);
  server.join();
  EXPECT_EQ(aborted + completed, 400);
}

TEST(Cancellation, CooperativeHandlerObservesCancelMidCall) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::atomic<bool> handler_entered{false};
  const EntryPointId ep = rt.bind(
      {.name = "looper"}, 700, [&](RtCtx& ctx, ppc::RegSet& regs) {
        handler_entered.store(true, std::memory_order_release);
        const std::uint64_t limit = host_cycles() + 20'000'000'000ull;
        while (!ctx.cancellation_requested() && host_cycles() < limit) {
        }
        ppc::set_rc(regs, ctx.cancellation_requested() ? Status::kCallAborted
                                                       : Status::kServerError);
      });

  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread server([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) rt.poll(s);
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  const CancelToken token = rt.cancel_token_create();
  std::thread canceller([&] {
    while (!handler_entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    rt.cancel(token);
  });
  CallOptions opts;
  opts.cancel_token = token;
  ppc::RegSet r = make_regs(1);
  // The handler runs to completion (cooperatively short-circuited); its
  // own rc reports that it saw the cancellation.
  EXPECT_EQ(rt.call_remote(me, 1, 700, ep, r, opts), Status::kCallAborted);
  canceller.join();
  stop.store(true, std::memory_order_release);
  server.join();
}

// ---------------------------------------------------------------------------
// Traffic classes
// ---------------------------------------------------------------------------

TEST(TrafficClass, BulkShedsFirstUnderPerClassWatermarks) {
  Runtime rt(3);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  HeldSlot server(rt);
  // Bulk sheds as soon as anything is queued; interactive keeps flowing.
  rt.set_shed_watermark(TrafficClass::kBulk, 1);
  rt.set_shed_watermark(TrafficClass::kInteractive, 32);

  // Prime one undrained cell (interactive, fire-and-forget).
  ASSERT_EQ(rt.call_remote_async(me, server.slot(), 700, ep, make_regs(0)),
            Status::kOk);
  ASSERT_GE(rt.xcall_depth(server.slot()), 1u);

  CallOptions bulk;
  bulk.traffic_class = TrafficClass::kBulk;
  EXPECT_EQ(rt.call_remote_async(me, server.slot(), 700, ep, make_regs(1),
                                 bulk),
            Status::kOverloaded);
  EXPECT_GE(rt.counters(me).get(Counter::kCallsShedBulk), 1u);
  // Interactive still admitted at the same depth.
  EXPECT_EQ(rt.call_remote_async(me, server.slot(), 700, ep, make_regs(2)),
            Status::kOk);
  // The ambient class sheds the same way options do.
  RequestCtx req;
  req.traffic_class = TrafficClass::kBulk;
  rt.set_request_ctx(me, req);
  EXPECT_EQ(rt.call_remote_async(me, server.slot(), 700, ep, make_regs(3)),
            Status::kOverloaded);
  rt.clear_request_ctx(me);
  server.release_and_join();
}

TEST(TrafficClass, InteractiveDrainsBeforeBulk) {
  Runtime rt(3);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  HeldSlot server(rt);

  // Queue bulk work from one producer and interactive work from another
  // while the owner holds the gate: two rings, one flagged in each mask.
  CallOptions bulk;
  bulk.traffic_class = TrafficClass::kBulk;
  SlotId bulk_src = 0;
  std::thread bulk_producer([&] {
    bulk_src = rt.register_thread();
    EXPECT_EQ(rt.call_remote_async(bulk_src, server.slot(), 700, ep,
                                   make_regs(0), bulk),
              Status::kOk);
  });
  bulk_producer.join();
  ASSERT_EQ(rt.call_remote_async(me, server.slot(), 700, ep, make_regs(1)),
            Status::kOk);
  ASSERT_GE(rt.xcall_depth(server.slot()), 2u);
  server.release_and_join();  // owner drains everything
  // The drain served the interactive doorbell first and booked that bulk
  // work had to wait behind it.
  EXPECT_GE(rt.counters(server.slot()).get(Counter::kBulkDrainsDeferred), 1u);
  EXPECT_EQ(rt.counters(bulk_src).get(Counter::kCallsBulk), 1u);
  EXPECT_EQ(rt.counters(me).get(Counter::kCallsBulk), 0u);
}

TEST(TrafficClass, StickyBulkBitOverAnEmptyRingBooksNoDeferral) {
  // The negative case: a bulk bit still set (sticky) after its ring went
  // empty. An interactive pass that drains cells, followed by a bulk pass
  // that drains none, deferred nothing and must book nothing.
  Runtime rt(3);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  std::atomic<int> phase{0};
  std::size_t first = 0;
  std::size_t second = 0;
  std::uint64_t bulk_mask = 0;
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    ASSERT_EQ(s, 1u);
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    first = rt.poll(s);  // drains the bulk cell; its bit stays set
    phase.store(3, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 4) {
      std::this_thread::yield();
    }
    bulk_mask = rt.ready_mask(s, TrafficClass::kBulk);
    second = rt.poll(s);  // interactive cell; bulk ring visited empty
    rt.enter_idle(s);
  });
  while (phase.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  CallOptions bulk;
  bulk.traffic_class = TrafficClass::kBulk;
  std::thread bulk_producer([&] {
    const SlotId b = rt.register_thread();
    EXPECT_EQ(rt.call_remote_async(b, 1, 700, ep, make_regs(0), bulk),
              Status::kOk);
  });
  bulk_producer.join();
  phase.store(2, std::memory_order_release);
  while (phase.load(std::memory_order_acquire) != 3) {
    std::this_thread::yield();
  }
  ASSERT_EQ(rt.call_remote_async(me, 1, 700, ep, make_regs(1)), Status::kOk);
  phase.store(4, std::memory_order_release);
  owner.join();
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 1u);
  EXPECT_NE(bulk_mask, 0u);  // the scenario: bulk bit set, bulk ring empty
  EXPECT_EQ(rt.counters(1).get(Counter::kBulkDrainsDeferred), 0u);
}

TEST(TrafficClass, BulkCallsRecordTheirOwnRtt) {
  Runtime rt(2);
  rt.set_hist_sample_period(1);  // time every call
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  CallOptions bulk;
  bulk.traffic_class = TrafficClass::kBulk;
  ppc::RegSet r = make_regs(5);
  ASSERT_EQ(rt.call_remote(me, 1, 700, ep, r, bulk), Status::kOk);
  EXPECT_EQ(r[1], 6u);
  EXPECT_EQ(rt.hist_snapshot(me).count(obs::Hist::kRttBulk), 1u);
}

// ---------------------------------------------------------------------------
// The frame lane's admission-only contract
// ---------------------------------------------------------------------------

TEST(FrameLane, AmbientContextGuardsAdmission) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  std::atomic<int> executed{0};
  const FrameServiceId fid = rt.bind_frame(
      /*program=*/0,
      [](void* self, FrameCtx&, CallFrame&) {
        static_cast<std::atomic<int>*>(self)->fetch_add(
            1, std::memory_order_relaxed);
        return Status::kOk;
      },
      &executed);

  // Expired ambient budget: refused before any cell exists.
  RequestCtx req;
  req.abs_deadline_cycles = 1;
  rt.set_request_ctx(me, req);
  CallFrame f = make_frame(fid, /*op=*/1);
  EXPECT_EQ(rt.call_remote_frame(me, 1, 700, f), Status::kDeadlineExceeded);
  EXPECT_EQ(frame_rc_of(f.op), Status::kDeadlineExceeded);

  // Cancelled ambient token: same seam, kCallAborted.
  const CancelToken token = rt.cancel_token_create();
  rt.cancel(token);
  req = RequestCtx{};
  req.cancel_token = token;
  rt.set_request_ctx(me, req);
  std::array<CallFrame, 3> batch = {make_frame(fid, 1), make_frame(fid, 1),
                                    make_frame(fid, 1)};
  EXPECT_EQ(rt.call_remote_frame_batch(me, 1, 700, batch),
            Status::kCallAborted);
  for (const CallFrame& b : batch) {
    EXPECT_EQ(frame_rc_of(b.op), Status::kCallAborted);
  }
  EXPECT_EQ(executed.load(), 0);

  // Context cleared: the same frames execute.
  rt.clear_request_ctx(me);
  f = make_frame(fid, 1);
  EXPECT_EQ(rt.call_remote_frame(me, 1, 700, f), Status::kOk);
  EXPECT_EQ(executed.load(), 1);
}

// ---------------------------------------------------------------------------
// Warm-path audit and KvService inheritance
// ---------------------------------------------------------------------------

TEST(RequestCtxWarmPath, NoContextCallsStayZeroLockZeroAlloc) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_adder(rt);
  // Warm up (bind paths, first-call pool growth).
  ppc::RegSet r = make_regs(0);
  ASSERT_EQ(rt.call_remote(me, 1, 700, ep, r), Status::kOk);

  const auto before = rt.slot_snapshot(me);
  for (Word i = 0; i < 512; ++i) {
    r = make_regs(i);
    ASSERT_EQ(rt.call_remote(me, 1, 700, ep, r), Status::kOk);
    ASSERT_EQ(r[1], i + 1);
  }
  const auto delta = rt.slot_snapshot(me).delta(before);
  EXPECT_EQ(delta.get(Counter::kLocksTaken), 0u);
  EXPECT_EQ(rt.shared_counters().get(Counter::kMailboxAllocs), 0u);
  // The context machinery is invisible to context-free traffic.
  EXPECT_EQ(delta.get(Counter::kCallsBulk), 0u);
  EXPECT_EQ(delta.get(Counter::kCallsCancelled), 0u);
  EXPECT_EQ(delta.get(Counter::kDeadlineInherited), 0u);
  EXPECT_EQ(delta.get(Counter::kDeadlineExceeded), 0u);
}

TEST(KvServiceCtx, MultiGetInheritsExpiredAmbientBudget) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 10, 100), Status::kOk);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 11, 110), Status::kOk);

  const std::array<Word, 2> keys = {10, 11};
  std::array<std::optional<Word>, 2> out;

  RequestCtx req;
  req.abs_deadline_cycles = 1;  // expired root budget
  rt.set_request_ctx(me, req);
  const auto before = rt.slot_snapshot(me);
  EXPECT_EQ(kv.multi_get(me, 1, 1, keys, out), 0u);
  const auto delta = rt.slot_snapshot(me).delta(before);
  EXPECT_FALSE(out[0].has_value());
  EXPECT_FALSE(out[1].has_value());
  EXPECT_GE(delta.get(Counter::kDeadlineExceeded), 1u);
  rt.clear_request_ctx(me);

  // Same probe with the budget cleared: both keys come back.
  EXPECT_EQ(kv.multi_get(me, 1, 1, keys, out), 2u);
  EXPECT_EQ(*out[0], 100u);
  EXPECT_EQ(*out[1], 110u);
}

}  // namespace
}  // namespace hppc::rt
