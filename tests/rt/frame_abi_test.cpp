// The Figure-4 frame ABI: op-word packing, the 8-word register contract
// and the cross-slot paths (direct steal, ring cell, batch). Also the
// frame entry's counter contract: calls to it book calls_frame and never
// touch the worker/CD machinery of worker-backed entries.
#include "rt/frame_abi.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/heap_audit.h"
#include "rt/runtime.h"
#include "rt/xcall.h"

namespace hppc::rt {
namespace {

// ---------------------------------------------------------------------------
// Op-word packing
// ---------------------------------------------------------------------------

TEST(FrameOpWord, PackUnpackRoundTrip) {
  const FrameWord op = frame_op(/*service=*/513, /*opcode=*/0xBEEF,
                                /*flags=*/0x5A);
  EXPECT_EQ(frame_service_of(op), 513u);
  EXPECT_EQ(frame_opcode_of(op), 0xBEEFu);
  EXPECT_EQ(frame_flags_of(op), 0x5Au);
  EXPECT_EQ(frame_rc_of(op), Status::kOk);  // rc byte starts 0
}

TEST(FrameOpWord, LowHalfIsTheLegacyOpflagsWord) {
  // The legacy contract: bits [31:0] are bit-for-bit ppc::op_flags.
  const FrameWord op = frame_op(7, 0x1234, 0x9C);
  EXPECT_EQ(frame_opflags_of(op), ppc::op_flags(0x1234, 0x9C));
}

TEST(FrameOpWord, WithRcReplacesOnlyTheRcByte) {
  FrameWord op = frame_op(3, 42, 0x80);
  op = frame_with_rc(op, Status::kOverloaded);
  EXPECT_EQ(frame_service_of(op), 3u);
  EXPECT_EQ(frame_opcode_of(op), 42u);
  EXPECT_EQ(frame_flags_of(op), 0x80u);
  EXPECT_EQ(frame_rc_of(op), Status::kOverloaded);
  op = frame_with_rc(op, Status::kOk);
  EXPECT_EQ(frame_rc_of(op), Status::kOk);
}

TEST(FrameOpWord, WithFlagsReplacesOnlyTheFlagsByte) {
  FrameWord op = frame_op(9, 11, 0x01);
  op = frame_with_rc(op, Status::kInvalidArgument);
  op = frame_with_flags(op, 0xF0);
  EXPECT_EQ(frame_flags_of(op), 0xF0u);
  EXPECT_EQ(frame_opcode_of(op), 11u);
  EXPECT_EQ(frame_rc_of(op), Status::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Cell inlining
// ---------------------------------------------------------------------------

TEST(FrameCell, FrameInlinesInOneCellAndRoundTrips) {
  XcallRing ring;
  CallFrame f = make_frame(/*service=*/5, /*opcode=*/77);
  for (std::size_t i = 0; i < kPpcWords; ++i) {
    f.w[i] = static_cast<Word>(1000 + i);
  }
  ASSERT_EQ(ring.try_post(1,
                          [&](XcallCell& c, std::size_t) {
                            c.caller = 3;
                            c.ep = frame_service_of(f.op);
                            c.opflags = frame_opflags_of(f.op);
                            c.deadline = 0;  // a real deadline lane
                            c.regs.w = f.w;
                          }),
            1u);
  std::size_t seen = 0;
  ring.drain([&](XcallCell& c) {
    const CallFrame out = cell_frame(c);
    EXPECT_EQ(out, f);  // all 8 words + the op word survived the cell
    EXPECT_EQ(c.caller, 3u);
    ++seen;
  });
  EXPECT_EQ(seen, 1u);
}

TEST(FrameCell, RegSetCellIsTheFrameOfItsEntry) {
  // A RegSet request rides the one cell format as the frame of its entry:
  // the ep lane names the entry, and its op word's low half is
  // regs[kOpWord], carried in `opflags` beside the 8 words.
  XcallRing ring;
  ppc::RegSet r{};
  r[0] = 5;
  ppc::set_op(r, 0x42, 0x7);
  ASSERT_EQ(ring.try_post(1,
                          [&](XcallCell& c, std::size_t) {
                            c.caller = 1;
                            c.ep = cell_pack_ep(9, /*token_idx=*/3, true);
                            c.regs = r;
                            c.opflags = r[ppc::kOpWord];
                            c.deadline = 0;
                          }),
            1u);
  ring.drain([&](XcallCell& c) {
    const CallFrame f = cell_frame(c);
    EXPECT_EQ(frame_service_of(f.op), 9u);  // the context lanes stay out
    EXPECT_EQ(frame_opflags_of(f.op), r[ppc::kOpWord]);
    EXPECT_EQ(f.w, r.w);
  });
}

// ---------------------------------------------------------------------------
// Local calls: the 8-word contract
// ---------------------------------------------------------------------------

struct Accumulator {
  std::uint64_t calls = 0;

  static Status echo_inc(void* self, FrameCtx&, CallFrame& f) {
    ++static_cast<Accumulator*>(self)->calls;
    for (std::size_t i = 0; i < kPpcWords; ++i) f.w[i] += 1;
    return Status::kOk;
  }
};

TEST(FrameCall, EightWordExactFit) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  Accumulator acc;
  const FrameServiceId svc =
      rt.bind_frame(/*program=*/0, &Accumulator::echo_inc, &acc);
  CallFrame f = make_frame(svc, /*opcode=*/1);
  for (std::size_t i = 0; i < kPpcWords; ++i) {
    f.w[i] = static_cast<Word>(10 * i);
  }
  ASSERT_EQ(rt.call_frame(slot, /*caller=*/1, f), Status::kOk);
  // Unlike the legacy RegSet (which spends regs[7] on op|flags|rc), all 8
  // payload words are the application's, in both directions.
  for (std::size_t i = 0; i < kPpcWords; ++i) {
    EXPECT_EQ(f.w[i], static_cast<Word>(10 * i + 1));
  }
  EXPECT_EQ(frame_rc_of(f.op), Status::kOk);
  EXPECT_EQ(acc.calls, 1u);
}

TEST(FrameCall, RcLandsInTheOpWord) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  const FrameServiceId svc = rt.bind_frame(
      0,
      [](void*, FrameCtx&, CallFrame&) { return Status::kInvalidArgument; },
      nullptr);
  CallFrame f = make_frame(svc, 1);
  EXPECT_EQ(rt.call_frame(slot, 1, f), Status::kInvalidArgument);
  EXPECT_EQ(frame_rc_of(f.op), Status::kInvalidArgument);
}

TEST(FrameCall, UnboundServiceFails) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  CallFrame f = make_frame(/*service=*/200, 1);
  EXPECT_EQ(rt.call_frame(slot, 1, f), Status::kNoSuchEntryPoint);
  EXPECT_EQ(frame_rc_of(f.op), Status::kNoSuchEntryPoint);
}

TEST(FrameCall, HardKillStopsCalls) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  Accumulator acc;
  const FrameServiceId svc =
      rt.bind_frame(0, &Accumulator::echo_inc, &acc);
  CallFrame f = make_frame(svc, 1);
  ASSERT_EQ(rt.call_frame(slot, 1, f), Status::kOk);
  ASSERT_EQ(rt.hard_kill(svc), Status::kOk);
  EXPECT_EQ(rt.hard_kill(svc), Status::kNoSuchEntryPoint);  // idempotent
  EXPECT_EQ(rt.call_frame(slot, 1, f), Status::kNoSuchEntryPoint);
  EXPECT_EQ(acc.calls, 1u);
}

TEST(FrameCall, BooksCallsFrameNotTheTypedCounters) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  Accumulator acc;
  const FrameServiceId svc =
      rt.bind_frame(0, &Accumulator::echo_inc, &acc);
  const auto before = rt.counters(slot).snapshot();
  CallFrame f = make_frame(svc, 1);
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(rt.call_frame(slot, 1, f), Status::kOk);
  }
  const auto after = rt.counters(slot).snapshot();
  EXPECT_EQ(after.get(obs::Counter::kCallsFrame) -
                before.get(obs::Counter::kCallsFrame),
            32u);
  // The frame lane never rides the typed machinery: no sync-call booking,
  // no worker creation, no CD traffic (those identities feed the pool
  // counters the benches assert on).
  EXPECT_EQ(after.get(obs::Counter::kCallsSync),
            before.get(obs::Counter::kCallsSync));
  EXPECT_EQ(after.get(obs::Counter::kWorkersCreated),
            before.get(obs::Counter::kWorkersCreated));
}

// ---------------------------------------------------------------------------
// Cross-slot lanes
// ---------------------------------------------------------------------------

TEST(FrameRemote, DirectExecutesOnIdleSlot) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  Accumulator acc;
  const FrameServiceId svc =
      rt.bind_frame(0, &Accumulator::echo_inc, &acc);
  CallFrame f = make_frame(svc, 1);
  f.w[0] = 41;
  Status s = Status::kOk;
  // A frame call has no worker to create: even the first one allocates
  // nothing.
  const std::uint64_t heap = heap_allocs_during(
      [&] { s = rt.call_remote_frame(me, /*target=*/1, /*caller=*/1, f); });
  ASSERT_EQ(s, Status::kOk);
  EXPECT_EQ(f.w[0], 42u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 1u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsFrame), 1u);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 0u);
  EXPECT_EQ(heap, 0u);
}

// Rewrites the flags byte and the last payload word and answers a
// non-kOk status: everything a handler can put into the op word.
Status flip_flags(void*, FrameCtx&, CallFrame& f) {
  f.op = frame_with_flags(f.op, frame_flags_of(f.op) ^ 0x5A);
  f.w[7] = ~f.w[7];
  return Status::kInvalidArgument;
}

TEST(FrameRemote, RingRoundTripReturnsTheDirectOpWord) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  const FrameServiceId svc = rt.bind_frame(0, &flip_flags, nullptr);
  CallFrame in = make_frame(svc, /*opcode=*/0x1234, /*flags=*/0x81);
  for (std::size_t k = 0; k < kPpcWords; ++k) in.w[k] = 7 * k + 1;

  CallFrame direct = in;  // slot 1 is unregistered: its gate is idle
  EXPECT_EQ(rt.call_remote_frame(me, 1, 1, direct), Status::kInvalidArgument);
  ASSERT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 1u);

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
  CallFrame ring = in;
  EXPECT_EQ(rt.call_remote_frame(me, 1, 1, ring), Status::kInvalidArgument);
  stop.store(true, std::memory_order_release);
  owner.join();
  ASSERT_EQ(rt.counters(me).get(obs::Counter::kXcallPosts), 1u);
  EXPECT_EQ(ring.op, direct.op);  // opcode, flags, rc and service
  EXPECT_EQ(ring.w, direct.w);
  EXPECT_EQ(frame_flags_of(ring.op), 0x81u ^ 0x5Au);
  EXPECT_EQ(frame_rc_of(ring.op), Status::kInvalidArgument);
}

TEST(FrameRemote, UnboundServiceFailsBeforePosting) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  CallFrame f = make_frame(/*service=*/99, 1);
  EXPECT_EQ(rt.call_remote_frame(me, 1, 1, f), Status::kNoSuchEntryPoint);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 0u);
}

TEST(FrameRemote, RingPathWhileOwnerPolls) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  Accumulator acc;
  const FrameServiceId svc =
      rt.bind_frame(0, &Accumulator::echo_inc, &acc);
  std::atomic<bool> stop{false};
  std::atomic<bool> owner_up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    ASSERT_EQ(s, 1u);
    owner_up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!owner_up.load(std::memory_order_acquire)) std::this_thread::yield();
  int bad = 0;
  const std::uint64_t heap = heap_allocs_during([&] {
    for (Word i = 0; i < 200; ++i) {
      CallFrame f = make_frame(svc, 1);
      for (std::size_t k = 0; k < kPpcWords; ++k) f.w[k] = i + k;
      if (rt.call_remote_frame(me, 1, /*caller=*/1, f) != Status::kOk) ++bad;
      for (std::size_t k = 0; k < kPpcWords; ++k) {
        if (f.w[k] != i + k + 1) ++bad;  // full 8-word reply over the ring
      }
    }
  });
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 200u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsFrame), 200u);
  EXPECT_EQ(heap, 0u);
}

TEST(FrameRemote, BatchRoundTripsOverServedSlot) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  Accumulator acc;
  const FrameServiceId svc =
      rt.bind_frame(0, &Accumulator::echo_inc, &acc);
  std::atomic<bool> stop{false};
  std::thread server([&] {
    const SlotId s = rt.register_thread();
    rt.serve(s, stop);
  });
  constexpr std::size_t kBatch = 150;  // > ring capacity: forces chunking
  std::vector<CallFrame> frames(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    frames[i] = make_frame(svc, 1);
    frames[i].w[0] = static_cast<Word>(i);
  }
  Status s = Status::kOk;
  const std::uint64_t heap = heap_allocs_during([&] {
    s = rt.call_remote_frame_batch(me, 1, /*caller=*/1,
                                   std::span<CallFrame>(frames));
  });
  stop.store(true, std::memory_order_release);
  server.join();
  ASSERT_EQ(s, Status::kOk);
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(frames[i].w[0], static_cast<Word>(i) + 1);
    EXPECT_EQ(frame_rc_of(frames[i].op), Status::kOk);
  }
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsFrame), kBatch);
  EXPECT_EQ(acc.calls, kBatch);
  EXPECT_EQ(heap, 0u);
}

TEST(FrameRemote, MixedOpWordsInOneBatch) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  Accumulator acc;
  const FrameServiceId inc =
      rt.bind_frame(0, &Accumulator::echo_inc, &acc);
  const FrameServiceId fail = rt.bind_frame(
      0,
      [](void*, FrameCtx&, CallFrame&) { return Status::kInvalidArgument; },
      nullptr);
  std::array<CallFrame, 3> frames = {
      make_frame(inc, 1), make_frame(fail, 2), make_frame(inc, 3)};
  // Idle target: the batch direct-executes under one gate steal.
  EXPECT_EQ(rt.call_remote_frame_batch(me, 1, 1,
                                       std::span<CallFrame>(frames)),
            Status::kInvalidArgument);  // first failure folded
  EXPECT_EQ(frame_rc_of(frames[0].op), Status::kOk);
  EXPECT_EQ(frame_rc_of(frames[1].op), Status::kInvalidArgument);
  EXPECT_EQ(frame_rc_of(frames[2].op), Status::kOk);
}

TEST(FrameRemote, ShedsAtTheWatermark) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  Accumulator acc;
  const FrameServiceId svc =
      rt.bind_frame(0, &Accumulator::echo_inc, &acc);
  // Park a cell in slot 1's ring so its depth is nonzero, then set the
  // watermark at 1: the next frame call must shed, not queue.
  const EntryPointId noop = rt.bind(
      {}, 0, [](RtCtx&, ppc::RegSet& r) { ppc::set_rc(r, Status::kOk); });
  ASSERT_EQ(rt.call_remote_async(me, /*target=*/1, /*caller=*/1, noop,
                                 ppc::RegSet{}),
            Status::kOk);
  rt.set_shed_watermark(1);
  CallFrame f = make_frame(svc, 1);
  EXPECT_EQ(rt.call_remote_frame(me, 1, 1, f), Status::kOverloaded);
  EXPECT_EQ(frame_rc_of(f.op), Status::kOverloaded);
  EXPECT_GT(rt.counters(me).get(obs::Counter::kCallsShed), 0u);
  rt.set_shed_watermark(0);
  EXPECT_EQ(rt.call_remote_frame(me, 1, 1, f), Status::kOk);
}

// The satellite race test for set_shed_watermark: writers retune the
// admission watermark while a caller hammers the frame path's relaxed
// read. Run under TSan (xcall_tests is in both sanitizer CI jobs), this
// proves the word is never torn and the documented relaxed/relaxed
// atomic pairing is clean.
TEST(FrameRemote, WatermarkRetuneRacesCleanlyWithCallers) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  Accumulator acc;
  const FrameServiceId svc =
      rt.bind_frame(0, &Accumulator::echo_inc, &acc);
  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    std::uint32_t w = 0;
    while (!stop.load(std::memory_order_acquire)) {
      rt.set_shed_watermark(w = (w + 1) % 4);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    CallFrame f = make_frame(svc, 1);
    const Status s = rt.call_remote_frame(me, 1, 1, f);
    ASSERT_TRUE(s == Status::kOk || s == Status::kOverloaded);
  }
  stop.store(true, std::memory_order_release);
  tuner.join();
  rt.set_shed_watermark(0);
}

}  // namespace
}  // namespace hppc::rt
