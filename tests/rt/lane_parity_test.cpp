// Lane parity: every cross-slot wrapper — call_remote, call_remote_batch,
// call_remote_async, call_remote_frame and call_remote_frame_batch — is a
// RegSet or CallFrame adapter over the one submit engine and its one
// request policy, posts the one cell format and resolves its entry in the
// one table, so a refusal at admission, a refusal at the drain or a full
// ring must look the same on all five: the same status, every request's
// rc set, one counter per refused call, and the ROBUSTNESS ring-full rule
// (the first full ring of a submission books xcall_ring_full, each later
// attempt books a retry). The RegSet wrappers call a worker-backed entry
// and call_remote_frame a frame entry; a frame batch mixes both kinds.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <span>
#include <string>
#include <thread>

#include "common/heap_audit.h"
#include "common/tsc.h"
#include "obs/counters.h"
#include "ppc/regs.h"
#include "rt/frame_abi.h"
#include "rt/runtime.h"
#include "rt/xcall.h"

namespace hppc::rt {
namespace {

using obs::Counter;

constexpr ProgramId kCaller = 900;
constexpr std::size_t kBatch = 4;

enum class Lane { kRemote, kBatch, kAsync, kFrame, kFrameBatch };

std::string lane_name(const testing::TestParamInfo<Lane>& info) {
  switch (info.param) {
    case Lane::kRemote:
      return "Remote";
    case Lane::kBatch:
      return "Batch";
    case Lane::kAsync:
      return "Async";
    case Lane::kFrame:
      return "Frame";
    case Lane::kFrameBatch:
      return "FrameBatch";
  }
  return "Unknown";
}

/// One submission on one lane from slot `me` to slot `target`. Requests
/// start with a stale rc so only the runtime can set the expected one.
class Submission {
 public:
  Submission(Runtime& rt, Lane lane, EntryPointId ep, EntryPointId fid)
      : rt_(rt), lane_(lane), ep_(ep) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      regs_[k] = ppc::RegSet{};
      regs_[k][0] = static_cast<Word>(k);
      ppc::set_op(regs_[k], 1);
      ppc::set_rc(regs_[k], Status::kServerError);
      // Frame k of a batch names the frame entry or, for odd k, the
      // worker-backed one: both sit in the one table.
      frames_[k] = make_frame(k % 2 == 0 ? fid : ep, 1);
      frames_[k].op = frame_with_rc(frames_[k].op, Status::kServerError);
      frames_[k].w[0] = static_cast<Word>(k);
    }
  }

  /// Requests in the submission.
  std::size_t size() const {
    return lane_ == Lane::kBatch || lane_ == Lane::kFrameBatch ? kBatch : 1;
  }

  Status run(SlotId me, SlotId target) {
    switch (lane_) {
      case Lane::kRemote:
        return rt_.call_remote(me, target, kCaller, ep_, regs_[0]);
      case Lane::kBatch:
        return rt_.call_remote_batch(me, target, kCaller, ep_, regs_);
      case Lane::kAsync:
        return rt_.call_remote_async(me, target, kCaller, ep_, regs_[0]);
      case Lane::kFrame:
        return rt_.call_remote_frame(me, target, kCaller, frames_[0]);
      case Lane::kFrameBatch:
        return rt_.call_remote_frame_batch(me, target, kCaller, frames_);
    }
    return Status::kServerError;
  }

  /// Every request's rc reads `s`. Async requests are passed by value, so
  /// there is nothing to check on that lane.
  void expect_rc(Status s) const {
    for (std::size_t k = 0; k < size(); ++k) {
      switch (lane_) {
        case Lane::kRemote:
        case Lane::kBatch:
          EXPECT_EQ(ppc::rc_of(regs_[k]), s) << "request " << k;
          break;
        case Lane::kFrame:
        case Lane::kFrameBatch:
          EXPECT_EQ(frame_rc_of(frames_[k].op), s) << "request " << k;
          break;
        case Lane::kAsync:
          break;
      }
    }
  }

 private:
  Runtime& rt_;
  Lane lane_;
  EntryPointId ep_;
  std::array<ppc::RegSet, kBatch> regs_;
  std::array<CallFrame, kBatch> frames_;
};

/// Slot 1's owner: registers (gate kOwner) and never drains until
/// released, so posted cells stay in its rings and nothing goes direct.
/// Released, it drains its rings and parks idle — or, with `drain` false,
/// parks idle at once, so a waiter's help drains the rings instead.
class StuckOwner {
 public:
  explicit StuckOwner(Runtime& rt, bool drain = true)
      : rt_(rt), drain_(drain), thread_([this] { run(); }) {
    while (!up_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  ~StuckOwner() { finish(); }
  StuckOwner(const StuckOwner&) = delete;
  StuckOwner& operator=(const StuckOwner&) = delete;

  void release() { release_.store(true, std::memory_order_release); }
  /// Release, and wait until the owner has drained and parked.
  void finish() {
    release();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    const SlotId s = rt_.register_thread();
    EXPECT_EQ(s, 1u);
    up_.store(true, std::memory_order_release);
    while (!release_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // Drain until the rings are empty, not until one poll finds nothing:
    // the helper counts cells once they are claimed, so a released owner
    // can poll before the last one is published.
    while (drain_ && (rt_.poll(s) > 0 || rt_.xcall_depth(s) > 0)) {
    }
    rt_.enter_idle(s);
  }

  Runtime& rt_;
  const bool drain_;
  std::atomic<bool> up_{false};
  std::atomic<bool> release_{false};
  std::thread thread_;  // last: starts once every member above exists
};

class LaneParity : public testing::TestWithParam<Lane> {
 protected:
  LaneParity()
      : me_(rt_.register_thread()),
        ep_(rt_.bind({.name = "adder"}, kCaller,
                     [this](RtCtx&, ppc::RegSet& r) {
                       runs_.fetch_add(1, std::memory_order_relaxed);
                       r[1] = r[0] + 1;
                       ppc::set_rc(r, Status::kOk);
                     })),
        fid_(rt_.bind(
            kCaller,
            [](void* runs, FrameCtx&, CallFrame&) {
              static_cast<std::atomic<int>*>(runs)->fetch_add(
                  1, std::memory_order_relaxed);
              return Status::kOk;
            },
            &runs_)),
        sub_(rt_, GetParam(), ep_, fid_) {}

  /// Refused at admission: the status comes back, every rc carries it, and
  /// `counter` moved by exactly one per refused call on the caller's slot.
  void expect_refused(Status s, Counter counter) {
    const std::uint64_t before = rt_.counters(me_).get(counter);
    EXPECT_EQ(sub_.run(me_, kTarget), s);
    sub_.expect_rc(s);
    EXPECT_EQ(rt_.counters(me_).get(counter) - before, sub_.size());
    EXPECT_EQ(rt_.counters(me_).get(Counter::kXcallPosts), posts_before_);
    EXPECT_EQ(rt_.counters(kTarget).get(Counter::kXcallDirect), 0u);
  }

  /// Submit from this thread while a helper thread waits until the
  /// submission's cells are all published in the target's ring (the
  /// submitter books xcall_posts after the publish) and then runs `then`.
  /// Returns the submission's status once both are done.
  template <typename Then>
  Status submit_then(Then then) {
    const std::uint64_t posted =
        rt_.counters(me_).get(Counter::kXcallPosts) + sub_.size();
    std::thread helper([&] {
      while (rt_.counters(me_).get(Counter::kXcallPosts) < posted) {
        std::this_thread::yield();
      }
      then();
    });
    const Status s = sub_.run(me_, kTarget);
    helper.join();
    return s;
  }

  static constexpr SlotId kTarget = 1;  // never registered: its gate is idle
  Runtime rt_{2};
  std::atomic<int> runs_{0};  // worker and frame handler executions
  SlotId me_;
  EntryPointId ep_;   // worker-backed
  EntryPointId fid_;  // a frame entry
  Submission sub_;
  std::uint64_t posts_before_ = 0;
};

TEST_P(LaneParity, ExpiredAmbientDeadlineRefusesEveryCall) {
  RequestCtx ctx;
  ctx.abs_deadline_cycles = 1;  // long past
  rt_.set_request_ctx(me_, ctx);
  expect_refused(Status::kDeadlineExceeded, Counter::kDeadlineExceeded);
  rt_.clear_request_ctx(me_);
}

TEST_P(LaneParity, CancelledAmbientTokenRefusesEveryCall) {
  const CancelToken token = rt_.cancel_token_create();
  rt_.cancel(token);
  RequestCtx ctx;
  ctx.cancel_token = token;
  rt_.set_request_ctx(me_, ctx);
  expect_refused(Status::kCallAborted, Counter::kCallsCancelled);
  rt_.clear_request_ctx(me_);
}

TEST_P(LaneParity, ShedAtTheWatermarkRefusesEveryCall) {
  // One undrained cell in the idle target's ring puts it at the watermark.
  ASSERT_EQ(rt_.call_remote_async(me_, kTarget, kCaller, ep_, ppc::RegSet{}),
            Status::kOk);
  posts_before_ = rt_.counters(me_).get(Counter::kXcallPosts);
  rt_.set_shed_watermark(1);
  expect_refused(Status::kOverloaded, Counter::kCallsShed);
}

TEST_P(LaneParity, FullRingBooksRingFullOnceThenRetries) {
  StuckOwner owner(rt_);
  for (std::size_t i = 0; i < XcallRing::kCapacity; ++i) {
    ASSERT_EQ(
        rt_.call_remote_async(me_, kTarget, kCaller, ep_, ppc::RegSet{}),
        Status::kOk);
  }
  ASSERT_EQ(rt_.counters(me_).get(Counter::kXcallRingFull), 0u);
  // A short ambient budget bounds the sync lanes' kBlock retry loop.
  RequestCtx ctx;
  ctx.abs_deadline_cycles = host_cycles() + 2'000'000;
  rt_.set_request_ctx(me_, ctx);
  Status s = Status::kOk;
  // Neither refusal nor retry allocates.
  const std::uint64_t heap =
      heap_allocs_during([&] { s = sub_.run(me_, kTarget); });
  rt_.clear_request_ctx(me_);

  EXPECT_EQ(rt_.counters(me_).get(Counter::kXcallRingFull), 1u);
  EXPECT_EQ(heap, 0u);
  if (GetParam() == Lane::kAsync) {
    // Post, don't wait: the full ring refuses the post at once.
    EXPECT_EQ(s, Status::kOverloaded);
    EXPECT_EQ(rt_.counters(me_).get(Counter::kRetries), 0u);
    return;
  }
  EXPECT_EQ(s, Status::kDeadlineExceeded);
  sub_.expect_rc(Status::kDeadlineExceeded);
  EXPECT_GE(rt_.counters(me_).get(Counter::kRetries), 1u);
  EXPECT_EQ(rt_.counters(me_).get(Counter::kDeadlineExceeded), sub_.size());
}

// Refusals at the drain: the request context rides every lane's cells, so
// the server refuses a cell whose root expired or was cancelled while it
// waited — without running the handler, booking the refusal on the target.

TEST_P(LaneParity, CellThatExpiresInFlightIsRefusedAtTheDrain) {
  // Ahead of the submission on the same ring sits a cell whose handler
  // runs until the shared ambient deadline passes, so whoever drains the
  // ring reaches the submission expired. For a sync lane that drainer is
  // the waiter itself (the owner parks without draining and the waiter's
  // help takes the slot): a waiter busy draining cannot abandon its cells
  // first, so the refusal is the server's on every lane.
  const EntryPointId sleeper = rt_.bind(
      {.name = "sleeper"}, kCaller, [](RtCtx& ctx, ppc::RegSet& r) {
        while (!ctx.cancellation_requested()) std::this_thread::yield();
        ppc::set_rc(r, Status::kOk);
      });
  const bool async = GetParam() == Lane::kAsync;
  StuckOwner owner(rt_, /*drain=*/async);
  RequestCtx ctx;
  ctx.abs_deadline_cycles = host_cycles() + 400'000'000;  // ~0.1-0.2 s
  rt_.set_request_ctx(me_, ctx);
  ASSERT_EQ(
      rt_.call_remote_async(me_, kTarget, kCaller, sleeper, ppc::RegSet{}),
      Status::kOk);
  const Status s = submit_then([&] { owner.release(); });
  rt_.clear_request_ctx(me_);
  owner.finish();

  EXPECT_EQ(s, async ? Status::kOk : Status::kDeadlineExceeded);
  sub_.expect_rc(Status::kDeadlineExceeded);
  EXPECT_EQ(rt_.counters(kTarget).get(Counter::kDeadlineExceeded),
            sub_.size());
  EXPECT_EQ(rt_.counters(me_).get(Counter::kDeadlineExceeded), 0u);
  EXPECT_EQ(runs_.load(), 0);
}

TEST_P(LaneParity, CellCancelledInFlightIsRefusedAtTheDrain) {
  // The waiter never abandons on a cancel, so the owner drains: the token
  // is cancelled once every cell is queued (the cancel sweep skips the
  // held slot), then the owner drains and refuses them.
  const CancelToken token = rt_.cancel_token_create();
  StuckOwner owner(rt_);
  RequestCtx ctx;
  ctx.cancel_token = token;
  rt_.set_request_ctx(me_, ctx);
  const Status s = submit_then([&] {
    rt_.cancel(token);
    owner.release();
  });
  rt_.clear_request_ctx(me_);
  owner.finish();

  EXPECT_EQ(s, GetParam() == Lane::kAsync ? Status::kOk
                                          : Status::kCallAborted);
  sub_.expect_rc(Status::kCallAborted);
  EXPECT_EQ(rt_.counters(kTarget).get(Counter::kCallsCancelled),
            sub_.size());
  EXPECT_EQ(rt_.counters(me_).get(Counter::kCallsCancelled), 0u);
  EXPECT_EQ(runs_.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllLanes, LaneParity,
                         testing::Values(Lane::kRemote, Lane::kBatch,
                                         Lane::kAsync, Lane::kFrame,
                                         Lane::kFrameBatch),
                         lane_name);

}  // namespace
}  // namespace hppc::rt
