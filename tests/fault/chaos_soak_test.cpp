// Chaos soak: a randomized failpoint schedule flips fault triggers on and
// off underneath live multi-slot traffic. Every caller carries a deadline
// and a bounded retry policy, so the invariant under test is sharp: no
// call ever hangs and no call ever returns a status outside the documented
// failure set — no matter which seams are failing at the moment. Run it
// under TSan in CI (the fault-injection jobs) to sweep the failure
// branches for races the happy path never executes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <iterator>
#include <span>
#include <thread>
#include <vector>

#include "common/prng.h"
#include "fault/failpoints.h"
#include "obs/counters.h"
#include "obs/telemetry.h"
#include "ppc/regs.h"
#include "rt/runtime.h"

namespace hppc {
namespace {

#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION

// The schedule the chaos thread draws from: every compiled-in rt seam,
// each with a spec that keeps the system lossy but live.
struct ChaosPoint {
  const char* name;
  const char* spec;
};
constexpr ChaosPoint kSchedule[] = {
    {"rt.xcall.ring_full", "prob=0.2"},
    {"rt.xcall.post", "delay=200"},
    {"rt.xcall.batch.post", "prob=0.3,delay=300"},
    // Holds the server's idle handshake open between its fence and its
    // head re-check, so posts race the handshake under live traffic.
    {"rt.xcall.idle.recheck", "prob=0.5,delay=300"},
    {"rt.xcall.complete.delay", "prob=0.3,delay=2000"},
    {"rt.worker.exhausted", "prob=0.05"},
    {"rt.handler.abort", "prob=0.05"},
    {"rt.call.delay", "prob=0.1,delay=500"},
    // Telemetry export failure: a scrape that fires this must degrade to an
    // empty snapshot, never block or corrupt the windowed state.
    {"obs.export", "prob=0.5"},
#if defined(HPPC_TRACE) && HPPC_TRACE
    // Span-drop seam: a trace that cannot record degrades by dropping the
    // span (booked in trace_drops) — calls never fail on tracing's behalf.
    {"rt.trace.drop", "prob=0.3"},
#endif
};
constexpr std::size_t kSchedulePoints = std::size(kSchedule);

// The park seams sit on the NO-deadline wait ladder, which the randomized
// phase never walks (every soak call carries a deadline, and a deadline
// waiter never parks). They get their own deterministic phase after the chaos
// stops: force every wait to park, against a still-live server, where a
// lost kick would hang the test. A busy-polling server on its own core
// answers inside the waiter's ~96-pause spin window, so the completion is
// held back for far longer than that window: every call parks and is
// kicked, whatever the core count.
constexpr ChaosPoint kParkSchedule[] = {
    {"rt.xcall.park.now", "always"},
    {"rt.xcall.park", "always,delay=200"},
    {"rt.xcall.complete.delay", "always,delay=20000"},
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

bool allowed_status(Status s) {
  switch (s) {
    case Status::kOk:
    case Status::kDeadlineExceeded:  // deadline beat a delayed reply
    case Status::kOverloaded:        // a full ring refused an async post
    case Status::kOutOfResources:    // injected pool exhaustion
    case Status::kCallAborted:       // injected handler abort
      return true;
    default:
      return false;
  }
}

TEST(ChaosSoak, RandomFailpointScheduleUnderTrafficNeverHangsOrCorrupts) {
  static_assert(kSchedulePoints >= 5, "soak must arm at least 5 failpoints");
  rt::Runtime rt(4);
  const EntryPointId ep =
      rt.bind({.name = "soak-adder"}, 0, [](rt::RtCtx&, rt::RegSet& regs) {
        regs[1] = regs[0] + 1;
        ppc::set_rc(regs, Status::kOk);
      });

  std::atomic<bool> stop_server{false};
  std::atomic<bool> server_up{false};
  std::thread server([&] {
    const rt::SlotId s = rt.register_thread();
    EXPECT_EQ(s, 0u);
    server_up.store(true, std::memory_order_release);
    // Busy-poll instead of serve(): a parked slot lets every caller
    // direct-execute through the gate, which would leave the ring seams
    // (post/ring_full/complete.*) unevaluated. Holding the gate forces the
    // §4.4 queued path the soak is built to stress. Every 64th empty poll
    // the server parks and un-parks at once, so posts race the idle
    // handshake while the gate stays held nearly all the time.
    std::uint32_t empty = 0;
    while (!stop_server.load(std::memory_order_acquire)) {
      if (rt.poll(s) != 0) continue;
      if (++empty % 64 == 0) {
        rt.enter_idle(s);
        rt.exit_idle(s);
      } else {
        std::this_thread::yield();
      }
    }
    rt.poll(s);
    rt.enter_idle(s);
  });
  while (!server_up.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  rt::CallOptions opts;
  // Generous, but bounded: a sync post that finds the ring full retries
  // until the deadline, then gives up.
  opts.deadline_cycles = 50'000'000;
  std::atomic<int> bad_status{0};
  std::atomic<int> bad_payload{0};

  // Deterministic warmup: arm every point and push traffic through both
  // the remote and the local call paths, so each seam is provably
  // evaluated at least once even when the randomized phase below finishes
  // inside a single chaos epoch (single-CPU runners timeslice coarsely).
  for (const ChaosPoint& p : kSchedule) {
    ASSERT_TRUE(fault::arm(p.name, p.spec)) << p.name;
  }
  {
    const rt::SlotId my = rt.register_thread();
    rt.trace_begin(my);  // trace builds: every call below mints spans, so
                         // the rt.trace.drop seam is provably evaluated
    for (Word i = 0; i < 64; ++i) {
      rt::RegSet r{};
      r[0] = i;
      const Status s = rt.call_remote(my, 0, /*caller=*/my, ep, r, opts);
      if (!allowed_status(s)) bad_status.fetch_add(1);
      if (s == Status::kOk && r[1] != i + 1) bad_payload.fetch_add(1);
      r[0] = i;
      const Status ls = rt.call(my, my, ep, r, opts);  // rt.call.delay seam
      if (!allowed_status(ls)) bad_status.fetch_add(1);
      if (ls == Status::kOk && r[1] != i + 1) bad_payload.fetch_add(1);
      // Telemetry scrape with obs.export armed: either a real snapshot
      // (one series per slot) or the degraded empty one — nothing else.
      const obs::Telemetry t = rt.telemetry();
      if (!t.slots.empty() && t.slots.size() != rt.slots()) {
        bad_payload.fetch_add(1);
      }
    }
    rt.trace_end(my);
  }
  // The idle-recheck seam runs only when the server parks for a moment
  // after an empty poll, which busy callers may never leave room for.
  // Wait, still fully armed, until it has been evaluated, so it is
  // evaluated whatever the timing of the randomized phase.
  while (fault::registry().point("rt.xcall.idle.recheck").evaluations() ==
         0) {
    std::this_thread::yield();
  }

  // The chaos controller: every few hundred microseconds, re-roll which
  // points are armed. Seeded Prng, so a failing schedule replays.
  std::atomic<bool> stop_chaos{false};
  std::thread chaos([&] {
    Prng rng(0xC4405ULL);
    while (!stop_chaos.load(std::memory_order_acquire)) {
      for (const ChaosPoint& p : kSchedule) {
        if (rng.below(2) == 0) {
          EXPECT_TRUE(fault::arm(p.name, p.spec)) << p.name;
        } else {
          fault::disarm(p.name);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  constexpr int kCallers = 2;
  constexpr Word kCallsEach = 400;
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const rt::SlotId my = rt.register_thread();
      rt.trace_begin(my);
      for (Word i = 0; i < kCallsEach; ++i) {
        if (i % 64 == 0) {
          // Telemetry under live chaos: the scrape must never hang or
          // produce a malformed snapshot, whatever the armed seams do.
          const obs::Telemetry t = rt.telemetry();
          if (!t.slots.empty() && t.slots.size() != rt.slots()) {
            bad_payload.fetch_add(1);
          }
        }
        rt::RegSet r{};
        r[0] = i;
        const Status s = rt.call_remote(my, 0, /*caller=*/my, ep, r, opts);
        if (!allowed_status(s)) bad_status.fetch_add(1);
        if (s == Status::kOk && r[1] != i + 1) bad_payload.fetch_add(1);
        if (i % 32 == static_cast<Word>(c)) {
          // Async flank: also only allowed to fail in documented ways.
          const Status as = rt.call_remote_async(my, 0, my, ep, r);
          if (as != Status::kOk && !allowed_status(as)) bad_status.fetch_add(1);
        }
        if (i % 16 == 0) {
          // Batched flank: the vectored-post seam (rt.xcall.batch.post)
          // under the same deadline umbrella — per-cell rc must stay inside
          // the documented set and payloads must stay intact.
          std::array<rt::RegSet, 4> b{};
          for (Word k = 0; k < b.size(); ++k) b[k][0] = i + k;
          const Status bs = rt.call_remote_batch(
              my, 0, my, ep, std::span<rt::RegSet>(b), opts);
          if (!allowed_status(bs)) bad_status.fetch_add(1);
          for (Word k = 0; k < b.size(); ++k) {
            const Status cs = ppc::rc_of(b[k]);
            if (!allowed_status(cs)) bad_status.fetch_add(1);
            if (cs == Status::kOk && b[k][1] != i + k + 1) {
              bad_payload.fetch_add(1);
            }
          }
        }
      }
      rt.trace_end(my);
    });
  }
  for (auto& t : callers) t.join();

  stop_chaos.store(true, std::memory_order_release);
  chaos.join();
  fault::disarm_all();

  // Deterministic park phase: only the park seams armed, server still
  // polling. Every call must post, park, and be kicked awake with the
  // right answer — a lost kick hangs right here.
  const rt::SlotId me = rt.register_thread();
  for (const ChaosPoint& p : kParkSchedule) {
    ASSERT_TRUE(fault::arm(p.name, p.spec)) << p.name;
  }
  for (Word i = 0; i < 16; ++i) {
    rt::RegSet r{};
    r[0] = i;
    ASSERT_EQ(rt.call_remote(me, 0, /*caller=*/me, ep, r), Status::kOk);
    ASSERT_EQ(r[1], i + 1);
  }
  fault::disarm_all();

  // Quiesce: with every point disarmed the system must be fully healthy.
  for (int i = 0; i < 16; ++i) {
    rt::RegSet r{};
    r[0] = 100;
    ASSERT_EQ(rt.call_remote(me, 0, 3, ep, r), Status::kOk);
    ASSERT_EQ(r[1], 101u);
  }
  for (rt::SlotId c = 1; c < rt.slots(); ++c) {
    expect_channel_free(rt, c, 0, ep);
  }
  stop_server.store(true, std::memory_order_release);
  server.join();

  EXPECT_EQ(bad_status.load(), 0);
  EXPECT_EQ(bad_payload.load(), 0);
  // The soak only proves something if faults actually fired.
  EXPECT_GT(rt.snapshot().get(obs::Counter::kFaultsInjected), 0u);
  std::size_t points_evaluated = 0;
  for (const ChaosPoint& p : kSchedule) {
    const fault::FailPoint& fp = fault::registry().point(p.name);
    SCOPED_TRACE(p.name);
    EXPECT_GT(fp.evaluations(), 0u)
        << p.name << " was never evaluated (injected=" << fp.injected() << ")";
    if (fp.evaluations() > 0) ++points_evaluated;
  }
  EXPECT_GE(points_evaluated, 5u);
  // The park phase must have actually walked the ladder's parked branch.
  for (const ChaosPoint& p : kParkSchedule) {
    SCOPED_TRACE(p.name);
    EXPECT_GT(fault::injected(p.name), 0u);
  }
  EXPECT_GT(rt.snapshot().get(obs::Counter::kWaiterParks), 0u);
  EXPECT_GT(rt.snapshot().get(obs::Counter::kWaiterKicks), 0u);
#if defined(HPPC_TRACE) && HPPC_TRACE
  // The drop seam really dropped spans, the drops were booked, and the
  // traced traffic still completed (checked by bad_status above): tracing
  // degrades by losing spans, never by failing calls.
  EXPECT_GT(rt.snapshot().get(obs::Counter::kTraceDrops), 0u);
#endif
  // obs.export degraded at least one scrape, and no scrape ever blocked
  // (the callers would have counted a malformed snapshot or hung).
  EXPECT_GT(fault::injected("obs.export"), 0u);
}

#else

TEST(ChaosSoak, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "build with -DHPPC_FAULT_INJECTION=ON to run the soak";
}

#endif  // HPPC_FAULT_INJECTION

}  // namespace
}  // namespace hppc
