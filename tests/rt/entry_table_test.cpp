// The one entry-point table (§4.1): worker-backed entries (bind with an
// RtHandler) and frame entries (bind with a FrameFn) share one id counter,
// one screen and one set of kill rules, and a RegSet or a CallFrame can
// call either kind, with the documented adaptation across kinds.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <span>
#include <thread>

#include "ppc/regs.h"
#include "rt/frame_abi.h"
#include "rt/runtime.h"

namespace hppc::rt {
namespace {

using obs::Counter;

Status count_and_echo(void* runs, FrameCtx&, CallFrame& f) {
  static_cast<std::atomic<int>*>(runs)->fetch_add(1);
  f.w[1] = f.w[0] + 1;
  return Status::kOk;
}

EntryPointId bind_adder(Runtime& rt) {
  return rt.bind({.name = "adder"}, /*program=*/0,
                 [](RtCtx&, ppc::RegSet& r) {
                   r[1] = r[0] + 1;
                   ppc::set_rc(r, Status::kOk);
                 });
}

TEST(EntryTable, OneIdCounterNeverReissuesAKilledId) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  std::atomic<int> runs{0};
  const EntryPointId a = bind_adder(rt);
  const FrameServiceId b = rt.bind_frame(0, &count_and_echo, &runs);
  const EntryPointId c = bind_adder(rt);
  const EntryPointId d = rt.bind(0, &count_and_echo, &runs);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1);
  EXPECT_EQ(d, c + 1);

  ASSERT_EQ(rt.hard_kill(b), Status::kOk);
  ASSERT_EQ(rt.hard_kill(c), Status::kOk);
  // New ids continue the count; the killed ones stay dead for either kind
  // of call.
  const EntryPointId e = rt.bind(0, &count_and_echo, &runs);
  const EntryPointId f = bind_adder(rt);
  EXPECT_EQ(e, d + 1);
  EXPECT_EQ(f, e + 1);
  for (const EntryPointId dead : {b, c}) {
    CallFrame frame = make_frame(dead, 1);
    EXPECT_EQ(rt.call_frame(slot, 1, frame), Status::kNoSuchEntryPoint);
    ppc::RegSet regs{};
    EXPECT_EQ(rt.call(slot, 1, dead, regs), Status::kNoSuchEntryPoint);
    EXPECT_EQ(rt.hard_kill(dead), Status::kNoSuchEntryPoint);
  }
  EXPECT_EQ(runs.load(), 0);
}

TEST(EntryTable, SoftKillRefusesNewFrameCallsDraining) {
  Runtime rt(2);  // slot 1 is never registered: its gate is idle (direct)
  const SlotId me = rt.register_thread();
  std::atomic<int> runs{0};
  const FrameServiceId fid = rt.bind_frame(0, &count_and_echo, &runs);
  CallFrame f = make_frame(fid, 1);
  ASSERT_EQ(rt.call_frame(me, 1, f), Status::kOk);
  ASSERT_EQ(rt.soft_kill(fid), Status::kOk);

  f = make_frame(fid, 1);
  EXPECT_EQ(rt.call_frame(me, 1, f), Status::kEntryPointDraining);
  EXPECT_EQ(frame_rc_of(f.op), Status::kEntryPointDraining);
  f = make_frame(fid, 1);
  EXPECT_EQ(rt.call_remote_frame(me, 1, 1, f), Status::kEntryPointDraining);
  EXPECT_EQ(frame_rc_of(f.op), Status::kEntryPointDraining);
  std::array<CallFrame, 3> batch = {make_frame(fid, 1), make_frame(fid, 2),
                                    make_frame(fid, 3)};
  EXPECT_EQ(rt.call_remote_frame_batch(me, 1, 1, batch),
            Status::kEntryPointDraining);
  for (const CallFrame& b : batch) {
    EXPECT_EQ(frame_rc_of(b.op), Status::kEntryPointDraining);
  }
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(rt.counters(me).get(Counter::kXcallPosts), 0u);
  EXPECT_EQ(rt.counters(1).get(Counter::kXcallDirect), 0u);
  // A draining entry can still be hard-killed, once.
  EXPECT_EQ(rt.hard_kill(fid), Status::kOk);
  EXPECT_EQ(rt.hard_kill(fid), Status::kNoSuchEntryPoint);
}

// A frame handler that records the op word and word 7 it was given, bumps
// all 8 words, rewrites the flags byte and answers kInvalidArgument.
struct Probe {
  FrameWord op = 0;
  Word w7 = 0;

  static Status run(void* self, FrameCtx&, CallFrame& f) {
    auto* p = static_cast<Probe*>(self);
    p->op = f.op;
    p->w7 = f.w[7];
    for (std::size_t i = 0; i < kPpcWords; ++i) f.w[i] += 1;
    f.op = frame_with_flags(f.op, 0x3C);
    return Status::kInvalidArgument;
  }
};

TEST(EntryTable, RegSetCallToAFrameEntryRunsItsFrame) {
  // The RegSet is the frame: its 8 words are the payload, and
  // regs[kOpWord] is also the op word's low half, which comes back with
  // the rc — the handler's own word 7 is overwritten by it. Same-slot it
  // books calls_frame, not calls_sync; the direct path books calls_frame
  // on the target.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  Probe probe;
  const EntryPointId ep = rt.bind(0, &Probe::run, &probe);
  for (const bool remote : {false, true}) {
    ppc::RegSet regs{};
    for (std::size_t i = 0; i < ppc::kOpWord; ++i) regs[i] = 10 + i;
    ppc::set_op(regs, /*opcode=*/0x77, /*flags=*/0x5);
    const Word sent = regs[ppc::kOpWord];
    const Status s = remote ? rt.call_remote(me, 1, 1, ep, regs)
                            : rt.call(me, 1, ep, regs);
    EXPECT_EQ(s, Status::kInvalidArgument);
    EXPECT_EQ(frame_service_of(probe.op), ep);
    EXPECT_EQ(frame_opflags_of(probe.op), sent);
    EXPECT_EQ(probe.w7, sent);
    for (std::size_t i = 0; i < ppc::kOpWord; ++i) {
      EXPECT_EQ(regs[i], 11 + i) << i;
    }
    EXPECT_EQ(ppc::opcode_of(regs[ppc::kOpWord]), 0x77u);
    EXPECT_EQ(ppc::flags_of(regs[ppc::kOpWord]), 0x3Cu);
    EXPECT_EQ(ppc::rc_of(regs), Status::kInvalidArgument);
  }
  EXPECT_EQ(rt.counters(me).get(Counter::kCallsFrame), 1u);
  EXPECT_EQ(rt.counters(me).get(Counter::kCallsSync), 0u);
  EXPECT_EQ(rt.counters(1).get(Counter::kCallsFrame), 1u);
  EXPECT_EQ(rt.counters(1).get(Counter::kCallsRemote), 0u);
}

TEST(EntryTable, FrameCallToAWorkerEntryRunsItsHandler) {
  // The handler sees the frame as a RegSet whose word 7 is the op word's
  // low half (frame word 7 is not delivered); the reply's word 7 and the
  // op word's low half are the handler's opflags. It books calls_sync
  // same-slot and calls_remote cross-slot, like any worker-backed call,
  // on the direct path and over the ring alike.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  Word seen_op = 0;
  const EntryPointId ep = rt.bind(
      {.name = "probe"}, 0, [&seen_op](RtCtx&, ppc::RegSet& r) {
        seen_op = r[ppc::kOpWord];
        r[1] = r[0] + 1;
        ppc::set_rc(r, Status::kOk);
      });
  const auto call_once = [&](const char* how, auto&& run) {
    CallFrame f = make_frame(ep, /*opcode=*/9, /*flags=*/0x2);
    f.w[0] = 5;
    f.w[7] = 0xDEAD;
    ASSERT_EQ(run(f), Status::kOk) << how;
    EXPECT_EQ(seen_op, ppc::op_flags(9, 0x2)) << how;
    EXPECT_EQ(f.w[1], 6u) << how;
    EXPECT_EQ(f.w[7], frame_opflags_of(f.op)) << how;
    EXPECT_EQ(frame_opcode_of(f.op), 9u) << how;
    EXPECT_EQ(frame_rc_of(f.op), Status::kOk) << how;
    EXPECT_EQ(frame_service_of(f.op), ep) << how;
  };
  call_once("local", [&](CallFrame& f) { return rt.call_frame(me, 1, f); });
  call_once("direct",
            [&](CallFrame& f) { return rt.call_remote_frame(me, 1, 1, f); });
  EXPECT_EQ(rt.counters(me).get(Counter::kCallsSync), 1u);
  EXPECT_EQ(rt.counters(1).get(Counter::kCallsRemote), 1u);
  EXPECT_EQ(rt.counters(1).get(Counter::kXcallDirect), 1u);

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
  call_once("ring",
            [&](CallFrame& f) { return rt.call_remote_frame(me, 1, 1, f); });
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(rt.counters(me).get(Counter::kXcallPosts), 1u);
  EXPECT_EQ(rt.counters(1).get(Counter::kCallsRemote), 2u);
  EXPECT_EQ(rt.counters(1).get(Counter::kCallsFrame), 0u);
}

}  // namespace
}  // namespace hppc::rt
