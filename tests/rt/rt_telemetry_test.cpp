// Runtime::telemetry() against known offered load: the windowed drain-rate
// series must reproduce the load the test offered, the occupancy EWMA and
// queueing-delay estimate must light up when a ring is made to backlog,
// and the RTT histograms must have counted every call at sample period 1.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/telemetry.h"
#include "rt/runtime.h"

namespace hppc {
namespace {

using obs::Counter;
using obs::Hist;

TEST(RtTelemetry, DrainRateMatchesOfferedLoad) {
  rt::Runtime rt(2);
  rt.set_hist_sample_period(1);  // time every call
  const rt::SlotId me = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "echo"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
        regs[1] = regs[0] + 1;
        ppc::set_rc(regs, Status::kOk);
      });

  std::atomic<bool> stop{false};
  std::atomic<rt::SlotId> server_slot{0};
  std::atomic<bool> up{false};
  std::thread server([&] {
    const rt::SlotId s = rt.register_thread();
    server_slot.store(s, std::memory_order_release);
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) rt.poll(s);
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();
  const rt::SlotId other = server_slot.load(std::memory_order_acquire);

  (void)rt.telemetry();  // prime the window

  constexpr int kCalls = 2000;
  ppc::RegSet regs;
  for (int i = 0; i < kCalls; ++i) {
    regs[0] = static_cast<Word>(i);
    ppc::set_op(regs, 1);
    ASSERT_EQ(rt.call_remote(me, other, 1, ep, regs), Status::kOk);
  }

  const obs::Telemetry t = rt.telemetry();
  stop.store(true, std::memory_order_release);
  server.join();

  ASSERT_EQ(t.slots.size(), rt.slots());
  EXPECT_GT(t.window_s, 0.0);
  // Every offered call crossed the server slot's ring exactly once (the
  // gate was held by the polling thread, so nothing went direct).
  const obs::SlotSeries& srv = t.slots[other];
  EXPECT_EQ(srv.drained_cells, static_cast<std::uint64_t>(kCalls));
  EXPECT_GE(srv.mean_drain_batch, 1.0);
  // drain_rate is drained/window by construction; cross-check it against
  // the offered rate computed from the same window.
  const double offered_per_sec = kCalls / t.window_s;
  EXPECT_GT(srv.drain_rate_per_sec, 0.5 * offered_per_sec);
  EXPECT_LT(srv.drain_rate_per_sec, 2.0 * offered_per_sec);
  EXPECT_DOUBLE_EQ(t.total_drain_rate_per_sec,
                   static_cast<double>(t.total_drained_cells) / t.window_s);

  // Always-on histograms saw every call: RTT on the caller, drain batches
  // on the server; the derived p50 came out calibrated and positive.
  EXPECT_EQ(rt.hist_snapshot(me).count(Hist::kRttRemote),
            static_cast<std::uint64_t>(kCalls));
  EXPECT_GT(rt.hist_snapshot(other).count(Hist::kDrainBatch), 0u);
  const obs::SlotSeries& mine = t.slots[me];
  EXPECT_GT(mine.rtt_remote_p50_ns, 0.0);
  EXPECT_LE(mine.rtt_remote_p50_ns, mine.rtt_remote_p99_ns * 1.0001);
}

TEST(RtTelemetry, BackloggedRingRaisesOccupancyAndQueueDelay) {
  rt::Runtime rt(2);
  const rt::SlotId me = rt.register_thread();
  std::atomic<int> executed{0};
  const EntryPointId ep = rt.bind(
      {.name = "slow"}, 700, [&](rt::RtCtx&, ppc::RegSet& regs) {
        executed.fetch_add(1, std::memory_order_relaxed);
        ppc::set_rc(regs, Status::kOk);
      });

  (void)rt.telemetry();  // prime

  // Nobody drains slot 1: async posts pile up in its ring, so the next
  // scrape samples a genuinely backlogged queue.
  constexpr int kBacklog = 12;
  for (int i = 0; i < kBacklog; ++i) {
    ppc::RegSet regs;
    ppc::set_op(regs, 1);
    ASSERT_EQ(rt.call_remote_async(me, 1, 1, ep, regs), Status::kOk);
  }
  EXPECT_EQ(rt.xcall_depth(1), static_cast<std::size_t>(kBacklog));

  const obs::Telemetry backlogged = rt.telemetry();
  EXPECT_DOUBLE_EQ(backlogged.slots[1].occupancy_ewma,
                   static_cast<double>(kBacklog) * 0.25);

  // Drain it; the following window pairs the drained cells with the still-
  // elevated occupancy EWMA, so Little's law yields a positive delay.
  EXPECT_EQ(rt.poll(1), static_cast<std::size_t>(kBacklog));
  EXPECT_EQ(executed.load(), kBacklog);
  const obs::Telemetry drained = rt.telemetry();
  const obs::SlotSeries& s = drained.slots[1];
  EXPECT_EQ(s.drained_cells, static_cast<std::uint64_t>(kBacklog));
  EXPECT_GT(s.drain_rate_per_sec, 0.0);
  EXPECT_GT(s.occupancy_ewma, 0.0);
  EXPECT_GT(s.est_queue_delay_ns, 0.0);
}

TEST(RtTelemetry, SnapshotsAreCountedAndSideEffectFree) {
  rt::Runtime rt(1);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);

  const std::uint64_t before =
      rt.snapshot().get(Counter::kTelemetrySnaps);
  (void)rt.telemetry();
  (void)rt.telemetry();
  EXPECT_EQ(rt.snapshot().get(Counter::kTelemetrySnaps), before + 2);
  // Scraping is read-only with respect to the per-slot blocks: counters
  // and histograms are unchanged by observation.
  const obs::CounterSnapshot c0 = rt.slot_snapshot(slot);
  (void)rt.telemetry();
  EXPECT_EQ(rt.slot_snapshot(slot).get(Counter::kCallsSync),
            c0.get(Counter::kCallsSync));
}

TEST(RtTelemetry, JsonExportOfLiveRuntimeIsWellFormed) {
  rt::Runtime rt(1);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
  ppc::RegSet regs;
  for (int i = 0; i < 10; ++i) {
    ppc::set_op(regs, 1);
    ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  }
  (void)rt.telemetry();
  const std::string json = obs::telemetry_to_json(rt.telemetry());
  EXPECT_NE(json.find("\"slots\":["), std::string::npos);
  EXPECT_NE(json.find("\"est_queue_delay_ns\":"), std::string::npos);
  int braces = 0;
  for (char c : json) braces += (c == '{') - (c == '}');
  EXPECT_EQ(braces, 0);
}

TEST(RtTelemetry, SamplePeriodRetuneRacesCallersAndScrape) {
  // The period is a relaxed tuning knob read only at countdown reloads:
  // retuning it while callers run and an observer scrapes must be race-
  // free (the TSan jobs run this) and must never cost a counted call.
  constexpr int kCallers = 3;
  constexpr int kCalls = 20000;
  rt::Runtime rt(kCallers);
  const EntryPointId ep = rt.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });

  std::atomic<int> running{kCallers};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      const rt::SlotId slot = rt.register_thread();
      ppc::RegSet regs;
      for (int i = 0; i < kCalls; ++i) {
        ppc::set_op(regs, 1);
        EXPECT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::thread tuner([&] {
    constexpr std::uint32_t kPeriods[] = {1, 0, 3, 64};
    for (std::size_t i = 0; running.load(std::memory_order_acquire) > 0;
         ++i) {
      rt.set_hist_sample_period(kPeriods[i % 4]);
      std::this_thread::yield();
    }
  });
  while (running.load(std::memory_order_acquire) > 0) {
    (void)rt.telemetry();
  }
  for (std::thread& t : callers) t.join();
  tuner.join();

  const std::uint64_t total = static_cast<std::uint64_t>(kCallers) * kCalls;
  EXPECT_EQ(rt.snapshot().get(Counter::kCallsSync), total);
  EXPECT_LE(rt.hist_snapshot().count(Hist::kRttSync), total);
}

}  // namespace
}  // namespace hppc
