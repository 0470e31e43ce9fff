// The one-line completion block end to end: whichever drain branch answers
// a ring call — executed, refused past its deadline, refused as cancelled,
// or completed onto a parked waiter — the server's reply words and rc must
// reach the caller's RegSet or CallFrame. Covered on every sync lane:
// call_remote and call_remote_batch on stack and pooled waits,
// call_remote_frame and call_remote_frame_batch. The parked cases run
// under TSan in the tsan-rt and fault-tsan CI jobs.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "common/tsc.h"
#include "fault/failpoints.h"
#include "ppc/regs.h"
#include "rt/frame_abi.h"
#include "rt/runtime.h"
#include "rt/xcall.h"

namespace hppc::rt {
namespace {

using obs::Counter;

constexpr ProgramId kCaller = 700;
constexpr std::size_t kBatch = 4;
// Far beyond any test's run time: a pooled wait that never expires.
constexpr std::uint64_t kLongBudget = 40'000'000'000ull;

// A request whose rc byte is stale: only a reply copied back from the
// server can turn it into the status the test expects.
ppc::RegSet request(Word seed) {
  ppc::RegSet r{};
  r[0] = seed;
  ppc::set_op(r, 1);
  ppc::set_rc(r, Status::kServerError);
  return r;
}

CallFrame frame_request(FrameServiceId fid, Word seed) {
  CallFrame f = make_frame(fid, 1);
  f.op = frame_with_rc(f.op, Status::kServerError);
  f.w[0] = seed;
  return f;
}

Word echoed(Word seed, std::size_t k) {
  return seed * 10 + static_cast<Word>(k);
}

// The executed reply: every free word carries a value derived from w[0].
EntryPointId bind_echo(Runtime& rt) {
  return rt.bind({.name = "echo"}, kCaller, [](RtCtx&, ppc::RegSet& r) {
    for (std::size_t k = 1; k < ppc::kOpWord; ++k) r[k] = echoed(r[0], k);
    ppc::set_rc(r, Status::kOk);
  });
}

FrameServiceId bind_frame_echo(Runtime& rt) {
  return rt.bind_frame(
      kCaller,
      [](void*, FrameCtx&, CallFrame& f) {
        for (std::size_t k = 1; k < kPpcWords; ++k) f.w[k] = echoed(f.w[0], k);
        return Status::kOk;
      },
      nullptr);
}

void expect_echoed(const ppc::RegSet& r, Word seed) {
  EXPECT_EQ(ppc::rc_of(r), Status::kOk);
  EXPECT_EQ(r[0], seed);
  for (std::size_t k = 1; k < ppc::kOpWord; ++k) {
    EXPECT_EQ(r[k], echoed(seed, k)) << "word " << k;
  }
}

void expect_echoed(const CallFrame& f, Word seed) {
  EXPECT_EQ(frame_rc_of(f.op), Status::kOk);
  EXPECT_EQ(f.w[0], seed);
  for (std::size_t k = 1; k < kPpcWords; ++k) {
    EXPECT_EQ(f.w[k], echoed(seed, k)) << "word " << k;
  }
}

// A refused reply: the request words come back carrying the drain's rc.
void expect_refused(const ppc::RegSet& r, Word seed, Status rc) {
  EXPECT_EQ(ppc::rc_of(r), rc);
  EXPECT_EQ(r[0], seed);
  EXPECT_EQ(r[1], 0u);
}

/// The target slot's owner thread. It registers (gate kOwner) and holds
/// the gate without draining until told otherwise: serve() starts a drain
/// loop; go_idle_after_posts(poster, n) publishes kIdle, without draining,
/// once `poster` has published n cells (it books xcall_posts after the
/// publish), so a waiting caller's help_drain steals the gate and runs the
/// drain itself.
class Owner {
 public:
  explicit Owner(Runtime& rt) : rt_(rt), thread_([this] { run(); }) {
    while (!up_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  ~Owner() {
    if (thread_.joinable()) join();
  }
  /// Stop and join: the owner's counters are final afterwards (a kick is
  /// booked just after the completion that wakes the caller).
  void join() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  Owner(const Owner&) = delete;
  Owner& operator=(const Owner&) = delete;

  SlotId slot() const { return slot_; }
  void serve() { mode_.store(kServe, std::memory_order_release); }
  void go_idle_after_posts(SlotId poster, std::uint64_t n) {
    poster_ = poster;
    idle_posts_ = n;
    mode_.store(kIdleAfterPosts, std::memory_order_release);
  }

 private:
  enum Mode : int { kHold, kServe, kIdleAfterPosts };

  void run() {
    slot_ = rt_.register_thread();
    up_.store(true, std::memory_order_release);
    bool idle = false;
    while (!stop_.load(std::memory_order_acquire)) {
      const int mode = mode_.load(std::memory_order_acquire);
      if (mode == kServe) {
        if (rt_.poll(slot_) == 0) std::this_thread::yield();
      } else if (mode == kIdleAfterPosts && !idle &&
                 rt_.counters(poster_).get(Counter::kXcallPosts) >=
                     idle_posts_) {
        rt_.enter_idle(slot_);
        idle = true;
      } else {
        std::this_thread::yield();
      }
    }
    if (!idle) {
      while (rt_.poll(slot_) > 0) {
      }
      rt_.enter_idle(slot_);
    }
  }

  Runtime& rt_;
  SlotId slot_ = 0;  // written before up_'s release store
  std::atomic<bool> up_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int> mode_{kHold};
  SlotId poster_ = 0;            // written before mode_'s release store
  std::uint64_t idle_posts_ = 0;  // likewise
  std::thread thread_;  // last: starts once every member above exists
};

TEST(CompletionLine, ExecutedReplyReachesEveryLane) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const EntryPointId ep = bind_echo(rt);
  const FrameServiceId fid = bind_frame_echo(rt);
  Owner owner(rt);
  owner.serve();

  CallOptions pooled;
  pooled.deadline_cycles = kLongBudget;
  for (const CallOptions& opts : {CallOptions{}, pooled}) {
    SCOPED_TRACE(opts.deadline_cycles != 0 ? "pooled wait" : "stack wait");
    ppc::RegSet r = request(3);
    ASSERT_EQ(rt.call_remote(me, owner.slot(), kCaller, ep, r, opts),
              Status::kOk);
    expect_echoed(r, 3);
    std::array<ppc::RegSet, kBatch> batch;
    for (Word k = 0; k < kBatch; ++k) batch[k] = request(10 + k);
    ASSERT_EQ(rt.call_remote_batch(me, owner.slot(), kCaller, ep, batch, opts),
              Status::kOk);
    for (Word k = 0; k < kBatch; ++k) expect_echoed(batch[k], 10 + k);
  }
  CallFrame f = frame_request(fid, 5);
  ASSERT_EQ(rt.call_remote_frame(me, owner.slot(), kCaller, f), Status::kOk);
  expect_echoed(f, 5);
  std::array<CallFrame, kBatch> frames;
  for (Word k = 0; k < kBatch; ++k) frames[k] = frame_request(fid, 20 + k);
  ASSERT_EQ(rt.call_remote_frame_batch(me, owner.slot(), kCaller, frames),
            Status::kOk);
  for (Word k = 0; k < kBatch; ++k) expect_echoed(frames[k], 20 + k);

  // Every call rode the ring: the owner held its gate throughout.
  EXPECT_EQ(rt.counters(owner.slot()).get(Counter::kXcallDirect), 0u);
  EXPECT_EQ(rt.counters(me).get(Counter::kXcallPosts), 2 + 3 * kBatch + 1);
}

TEST(CompletionLine, CancelledAtDrainReplyCarriesTheAbort) {
  // Frames carry no cancel token in flight, so only the typed lanes reach
  // this branch.
  for (const bool pooled : {false, true}) {
    for (const bool batched : {false, true}) {
      SCOPED_TRACE(std::string(pooled ? "pooled" : "stack") +
                   (batched ? " batch" : " single"));
      Runtime rt(3);
      rt.register_thread();  // slot 0: observer
      const EntryPointId ep = bind_echo(rt);
      const CancelToken token = rt.cancel_token_create();
      Owner owner(rt);  // slot 1 holds its gate: the cancel sweep skips it
      CallOptions opts;
      opts.cancel_token = token;
      if (pooled) opts.deadline_cycles = kLongBudget;
      const std::size_t n = batched ? kBatch : 1;
      std::array<ppc::RegSet, kBatch> regs;
      for (Word k = 0; k < kBatch; ++k) regs[k] = request(30 + k);

      std::atomic<Status> result{Status::kOk};
      std::thread caller([&] {
        const SlotId s = rt.register_thread();
        EXPECT_EQ(s, 2u);
        result.store(
            batched
                ? rt.call_remote_batch(s, owner.slot(), kCaller, ep, regs, opts)
                : rt.call_remote(s, owner.slot(), kCaller, ep, regs[0], opts),
            std::memory_order_release);
      });
      // The caller books its posts after publishing the cells.
      while (rt.counters(2).get(Counter::kXcallPosts) < n) {
        std::this_thread::yield();
      }
      rt.cancel(token);
      owner.serve();
      caller.join();

      EXPECT_EQ(result.load(std::memory_order_acquire), Status::kCallAborted);
      for (Word k = 0; k < n; ++k) {
        expect_refused(regs[k], 30 + k, Status::kCallAborted);
      }
      EXPECT_EQ(rt.counters(owner.slot()).get(Counter::kCallsCancelled), n);
    }
  }
}

TEST(CompletionLine, ExpiredAtDrainReplyCarriesTheDeadline) {
  // Only pooled (deadline) waits reach this branch. To hit it without
  // racing the caller's own expiry check, the caller is made the server:
  // a slow cell queued ahead of ours burns past the deadline inside the
  // caller's help_drain, so our cell drains late while the caller is busy
  // draining it rather than abandoning it.
  constexpr std::uint64_t kBudget = 200'000'000;  // ~0.1 s of cycles
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batch" : "single");
    Runtime rt(2);
    const SlotId me = rt.register_thread();
    const EntryPointId ep = bind_echo(rt);
    std::atomic<std::uint64_t> burn_until{0};
    const EntryPointId slow = rt.bind(
        {.name = "slow"}, kCaller, [&burn_until](RtCtx&, ppc::RegSet& r) {
          while (host_cycles() < burn_until.load(std::memory_order_relaxed)) {
            cpu_relax();
          }
          ppc::set_rc(r, Status::kOk);
        });
    Owner owner(rt);
    const std::size_t n = batched ? kBatch : 1;
    ASSERT_EQ(rt.call_remote_async(me, owner.slot(), kCaller, slow,
                                   request(0)),
              Status::kOk);
    // Once our cells sit behind the slow one.
    owner.go_idle_after_posts(me, 1 + n);

    CallOptions opts;
    opts.deadline_cycles = kBudget;
    burn_until.store(host_cycles() + 2 * kBudget, std::memory_order_relaxed);
    std::array<ppc::RegSet, kBatch> regs;
    for (Word k = 0; k < kBatch; ++k) regs[k] = request(40 + k);
    const Status s =
        batched ? rt.call_remote_batch(me, owner.slot(), kCaller, ep, regs, opts)
                : rt.call_remote(me, owner.slot(), kCaller, ep, regs[0], opts);

    EXPECT_EQ(s, Status::kDeadlineExceeded);
    for (Word k = 0; k < n; ++k) {
      expect_refused(regs[k], 40 + k, Status::kDeadlineExceeded);
    }
    // The drain refused every cell; the caller never timed out itself.
    EXPECT_EQ(rt.counters(owner.slot()).get(Counter::kDeadlineExceeded), n);
    EXPECT_EQ(rt.counters(me).get(Counter::kDeadlineExceeded), 0u);
  }
}

TEST(CompletionLine, ParkedWaiterIsKickedWithTheReply) {
  // The owner holds its gate without draining until the caller has parked
  // on its wait line, so every lane's waiter walks the whole ladder and
  // the completing server, whose load sees the parked bit, must kick it.
  enum Lane { kSingle, kBatched, kFrame, kFrameBatch };
  constexpr SlotId kCallerSlot = 2;
  for (const Lane lane : {kSingle, kBatched, kFrame, kFrameBatch}) {
    SCOPED_TRACE(static_cast<int>(lane));
    Runtime rt(3);
    rt.register_thread();  // slot 0: observer
    const EntryPointId ep = bind_echo(rt);
    const FrameServiceId fid = bind_frame_echo(rt);
    Owner owner(rt);  // slot 1
    std::array<ppc::RegSet, kBatch> regs;
    std::array<CallFrame, kBatch> frames;
    for (Word k = 0; k < kBatch; ++k) {
      regs[k] = request(50 + k);
      frames[k] = frame_request(fid, 50 + k);
    }

    std::atomic<Status> result{Status::kServerError};
    std::thread caller([&] {
      const SlotId s = rt.register_thread();
      EXPECT_EQ(s, kCallerSlot);
      Status rc = Status::kServerError;
      switch (lane) {
        case kSingle:
          rc = rt.call_remote(s, owner.slot(), kCaller, ep, regs[0]);
          break;
        case kBatched:
          rc = rt.call_remote_batch(s, owner.slot(), kCaller, ep, regs);
          break;
        case kFrame:
          rc = rt.call_remote_frame(s, owner.slot(), kCaller, frames[0]);
          break;
        case kFrameBatch:
          rc = rt.call_remote_frame_batch(s, owner.slot(), kCaller, frames);
          break;
      }
      result.store(rc, std::memory_order_release);
    });
    while (rt.counters(kCallerSlot).get(Counter::kWaiterParks) == 0) {
      std::this_thread::yield();
    }
    // The park is booked just before the park CAS; give the waiter far
    // longer than that step takes to reach the futex wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    owner.serve();
    caller.join();
    owner.join();

    EXPECT_EQ(result.load(std::memory_order_acquire), Status::kOk);
    const std::size_t n = (lane == kSingle || lane == kFrame) ? 1 : kBatch;
    for (Word k = 0; k < n; ++k) {
      if (lane == kSingle || lane == kBatched) {
        expect_echoed(regs[k], 50 + k);
      } else {
        expect_echoed(frames[k], 50 + k);
      }
    }
    EXPECT_GE(rt.counters(owner.slot()).get(Counter::kWaiterKicks), 1u);
  }
}

#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
TEST(CompletionLine, ForcedParkThenDelayedCompletionDeliversTheReply) {
  // "rt.xcall.park.now" sends every no-deadline wait straight to the park
  // CAS after one spin window; "rt.xcall.complete.delay" holds the reply
  // back far longer than that window, so the waiter is parked when the
  // server's reply and done stores land — against a live, draining
  // owner, where a waiter that is never kicked would show up as a
  // missing kick and a park->wake stall. Both seams sit in
  // one engine stage each, so all four sync lanes must honour them.
  ASSERT_TRUE(fault::arm("rt.xcall.park.now", "always"));
  ASSERT_TRUE(fault::arm("rt.xcall.complete.delay", "always,delay=20000"));
  {
    Runtime rt(2);
    const SlotId me = rt.register_thread();
    const EntryPointId ep = bind_echo(rt);
    const FrameServiceId fid = bind_frame_echo(rt);
    Owner owner(rt);
    owner.serve();
    for (Word i = 0; i < 2; ++i) {
      ppc::RegSet r = request(60 + i);
      ASSERT_EQ(rt.call_remote(me, owner.slot(), kCaller, ep, r), Status::kOk);
      expect_echoed(r, 60 + i);
      std::array<ppc::RegSet, kBatch> batch;
      for (Word k = 0; k < kBatch; ++k) batch[k] = request(70 + k);
      ASSERT_EQ(rt.call_remote_batch(me, owner.slot(), kCaller, ep, batch),
                Status::kOk);
      for (Word k = 0; k < kBatch; ++k) expect_echoed(batch[k], 70 + k);
      CallFrame f = frame_request(fid, 80 + i);
      ASSERT_EQ(rt.call_remote_frame(me, owner.slot(), kCaller, f),
                Status::kOk);
      expect_echoed(f, 80 + i);
      std::array<CallFrame, kBatch> frames;
      for (Word k = 0; k < kBatch; ++k) frames[k] = frame_request(fid, 90 + k);
      ASSERT_EQ(rt.call_remote_frame_batch(me, owner.slot(), kCaller, frames),
                Status::kOk);
      for (Word k = 0; k < kBatch; ++k) expect_echoed(frames[k], 90 + k);
    }
    owner.join();
    const std::uint64_t parks = rt.counters(me).get(Counter::kWaiterParks);
    const std::uint64_t kicks =
        rt.counters(owner.slot()).get(Counter::kWaiterKicks);
    // Every lane's first wait parks behind the delayed completion: four
    // lanes, two rounds.
    EXPECT_GE(parks, 8u);
    EXPECT_GE(kicks, 1u);
    EXPECT_LE(kicks, parks);  // a kick only ever answers a park
  }
  EXPECT_GT(fault::injected("rt.xcall.complete.delay"), 0u);
  EXPECT_GE(fault::injected("rt.xcall.park.now"), 8u);
  fault::disarm_all();
}
#endif  // HPPC_FAULT_INJECTION

}  // namespace
}  // namespace hppc::rt
