// The Figure-4 frame ABI: op-word packing, the 8-word register contract,
// the scatter/gather spill path for >8-word payloads, and the cross-slot
// lanes (direct steal, ring cell, batch). Also the frame path's counter
// contract: frame calls book calls_frame and never touch the typed path's
// worker/CD machinery.
#include "rt/frame_abi.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "rt/runtime.h"
#include "rt/xcall.h"
#include "rt/bulk_desc.h"

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
                            c.ep = kFrameCellEp | frame_service_of(f.op);
                            c.deadline = f.op;  // the op lane
                            c.regs.w = f.w;
                          }),
            1u);
  std::size_t seen = 0;
  ring.drain([&](XcallCell& c) {
    ASSERT_TRUE(cell_is_frame(c));
    const CallFrame out = cell_frame(c);
    EXPECT_EQ(out, f);  // all 8 words + the op word survived the cell
    EXPECT_EQ(c.caller, 3u);
    ++seen;
  });
  EXPECT_EQ(seen, 1u);
}

TEST(FrameCell, LegacyCellsAreNotFrames) {
  XcallRing ring;
  ASSERT_EQ(ring.try_post(1,
                          [](XcallCell& c, std::size_t) {
                            c.caller = 1;
                            c.ep = 9;
                            c.regs = ppc::RegSet{};
                            c.deadline = 0;
                          }),
            1u);
  ring.drain([&](XcallCell& c) { EXPECT_FALSE(cell_is_frame(c)); });
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

TEST(FrameCall, UnbindStopsCalls) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  Accumulator acc;
  const FrameServiceId svc =
      rt.bind_frame(0, &Accumulator::echo_inc, &acc);
  CallFrame f = make_frame(svc, 1);
  ASSERT_EQ(rt.call_frame(slot, 1, f), Status::kOk);
  ASSERT_EQ(rt.unbind_frame(svc), Status::kOk);
  EXPECT_EQ(rt.unbind_frame(svc), Status::kNoSuchEntryPoint);  // idempotent
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
// Scatter/gather spill (>8 words)
// ---------------------------------------------------------------------------

/// A checksum service: gathers the (arbitrarily long) request, sums its
/// bytes into w[2], and scatters a transformed copy into the reply
/// segments. Payload length is sg-described, NOT frame-resident — this is
/// the 9-words-and-up path.
struct ChecksumService {
  static Status run(void* /*self*/, FrameCtx&, CallFrame& f) {
    const BulkDesc* sg = frame_sg(f);
    if (sg == nullptr) return Status::kInvalidArgument;
    std::vector<std::byte> buf(bulk_total_in(*sg));
    const std::size_t n =
        bulk_gather(*sg, LocalBulkResolver{}, buf.data(), buf.size());
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += static_cast<std::uint32_t>(buf[i]);
      buf[i] = static_cast<std::byte>(static_cast<unsigned>(buf[i]) ^ 0xFF);
    }
    f.w[2] = sum;
    f.w[3] = static_cast<Word>(
        bulk_scatter(*sg, LocalBulkResolver{}, buf.data(), n));
    return Status::kOk;
  }
};

TEST(FrameSgSpill, NineWordsSpillThroughDescriptors) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  const FrameServiceId svc = rt.bind_frame(0, &ChecksumService::run, nullptr);

  // A 9-word payload: one word too many for the frame, so it rides SG.
  std::array<Word, 9> payload;
  std::iota(payload.begin(), payload.end(), 1);
  std::array<Word, 9> reply{};
  const BulkSeg in[] = {bulk_local(payload.data(), sizeof(payload))};
  const BulkSeg out[] = {bulk_local(reply.data(), sizeof(reply))};
  const BulkDesc sg{in, 1, out, 1};

  CallFrame f = make_frame(svc, /*opcode=*/7);
  frame_attach_sg(f, &sg);
  ASSERT_TRUE(frame_has_sg(f));
  ASSERT_EQ(rt.call_frame(slot, 1, f), Status::kOk);

  std::uint32_t expect_sum = 0;
  const auto* bytes = reinterpret_cast<const std::byte*>(payload.data());
  for (std::size_t i = 0; i < sizeof(payload); ++i) {
    expect_sum += static_cast<std::uint32_t>(bytes[i]);
  }
  EXPECT_EQ(f.w[2], expect_sum);
  EXPECT_EQ(f.w[3], sizeof(payload));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(reply[i], payload[i] ^ 0xFFFFFFFFu);
  }
}

TEST(FrameSgSpill, MultiSegmentGatherAndScatter) {
  // Scatter/gather proper: discontiguous caller buffers on both sides.
  const char a[] = "hello ";
  const char b[] = "frame world";
  const BulkSeg in[] = {bulk_local(a, 6), bulk_local(b, 11)};
  char out1[5] = {};
  char out2[12] = {};
  const BulkSeg out[] = {bulk_local(out1, 5), bulk_local(out2, 12)};
  const BulkDesc sg{in, 2, out, 2};
  EXPECT_EQ(bulk_total_in(sg), 17u);
  EXPECT_EQ(bulk_total_out(sg), 17u);

  char gathered[32] = {};
  const LocalBulkResolver local{};
  EXPECT_EQ(bulk_gather(sg, local, gathered, sizeof(gathered)), 17u);
  EXPECT_EQ(std::string_view(gathered, 17), "hello frame world");
  EXPECT_EQ(bulk_scatter(sg, local, gathered, 17), 17u);
  EXPECT_EQ(std::string_view(out1, 5), "hello");
  EXPECT_EQ(std::string_view(out2, 12), " frame world");
}

TEST(FrameSgSpill, StageRejectsOversizedPayloadInsteadOfTruncating) {
  mem::Arena arena;
  BulkStage stage(arena, /*node=*/0, /*capacity=*/16);
  std::array<std::byte, 32> big{};
  const BulkSeg in[] = {bulk_local(big.data(), big.size())};
  const BulkDesc sg{in, 1, nullptr, 0};
  const LocalBulkResolver local{};
  std::size_t len = 0;
  EXPECT_FALSE(stage.gather(sg, local, &len));

  const BulkSeg small_in[] = {bulk_local(big.data(), 8)};
  const BulkDesc small{small_in, 1, nullptr, 0};
  ASSERT_TRUE(stage.gather(small, local, &len));
  EXPECT_EQ(len, 8u);
}

TEST(FrameSgSpill, GrantedRegionSegmentsRefuseLocalResolution) {
  // A granted-region segment names a CopyServer region id, which does not
  // exist in-process: the frame lane's resolver must refuse it, and the
  // copy loops must stop at the refusal instead of faulting or truncating
  // silently past it.
  char src[8] = "abcdefg";
  char dst[8] = {};
  const BulkSeg in[] = {bulk_local(src, 4), bulk_region(3, 0, 4)};
  const BulkDesc sg{in, 2, nullptr, 0};
  const LocalBulkResolver local{};
  EXPECT_EQ(local(in[1], false), nullptr);
  char gathered[16] = {};
  EXPECT_EQ(bulk_gather(sg, local, gathered, sizeof(gathered)), 4u);
  EXPECT_LT(bulk_gather(sg, local, gathered, sizeof(gathered)),
            bulk_total_in(sg));  // short gather is detectable

  const BulkSeg out[] = {bulk_region(3, 0, 8), bulk_local(dst, 8)};
  const BulkDesc sg_out{nullptr, 0, out, 2};
  EXPECT_EQ(bulk_scatter(sg_out, local, src, 8), 0u);
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
  ASSERT_EQ(rt.call_remote_frame(me, /*target=*/1, /*caller=*/1, f),
            Status::kOk);
  EXPECT_EQ(f.w[0], 42u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kXcallDirect), 1u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsFrame), 1u);
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 0u);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
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
  for (Word i = 0; i < 200; ++i) {
    CallFrame f = make_frame(svc, 1);
    for (std::size_t k = 0; k < kPpcWords; ++k) f.w[k] = i + k;
    ASSERT_EQ(rt.call_remote_frame(me, 1, /*caller=*/1, f), Status::kOk);
    for (std::size_t k = 0; k < kPpcWords; ++k) {
      ASSERT_EQ(f.w[k], i + k + 1);  // full 8-word reply over the ring
    }
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(rt.counters(0).get(obs::Counter::kXcallPosts), 200u);
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsFrame), 200u);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
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
  ASSERT_EQ(rt.call_remote_frame_batch(me, 1, /*caller=*/1,
                                       std::span<CallFrame>(frames)),
            Status::kOk);
  stop.store(true, std::memory_order_release);
  server.join();
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(frames[i].w[0], static_cast<Word>(i) + 1);
    EXPECT_EQ(frame_rc_of(frames[i].op), Status::kOk);
  }
  EXPECT_EQ(rt.counters(1).get(obs::Counter::kCallsFrame), kBatch);
  EXPECT_EQ(acc.calls, kBatch);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
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
