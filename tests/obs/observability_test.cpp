// The observability layer's own contract: the zero-contention invariant on
// the warm path (the paper's §1/§2 claim as a measured fact), the derived
// pool counters, the registry merge, the bounded trace ring, and the
// machine-readable bench report.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "kernel/machine.h"
#include "obs/bench_metrics.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "ppc/facility.h"
#include "rt/runtime.h"
#include "sim/config.h"

namespace hppc {
namespace {

using obs::Counter;
using obs::CounterSnapshot;

// ---------------------------------------------------------------------------
// Zero-contention invariant, simulated facility
// ---------------------------------------------------------------------------

TEST(ZeroContention, WarmNullPpcOnSimFacility) {
  kernel::Machine machine(sim::hector_config(4));
  ppc::PpcFacility facility(machine);
  auto& server_as = machine.create_address_space(700, 0);
  const EntryPointId ep =
      facility.bind({.name = "null"}, &server_as, 700,
                    [](ppc::ServerCtx&, ppc::RegSet& r) {
                      ppc::set_rc(r, Status::kOk);
                    });
  auto& as = machine.create_address_space(100, 0);
  kernel::Process& client = machine.create_process(100, &as, "client", 0);

  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  // Warmup: the first call may grow pools through Frank (slow path).
  ASSERT_EQ(facility.call(machine.cpu(0), client, ep, regs), Status::kOk);

  const CounterSnapshot warm = machine.cpu(0).counters().snapshot();
  constexpr int kCalls = 100;
  for (int i = 0; i < kCalls; ++i) {
    ppc::set_op(regs, 1);
    ASSERT_EQ(facility.call(machine.cpu(0), client, ep, regs), Status::kOk);
  }
  const CounterSnapshot delta =
      machine.cpu(0).counters().snapshot().delta(warm);

  // The paper's central claim, now a measured invariant: after warmup the
  // fast path takes no locks and touches no shared cache lines.
  EXPECT_EQ(delta.get(Counter::kLocksTaken), 0u);
  EXPECT_EQ(delta.get(Counter::kSharedLinesTouched), 0u);
  EXPECT_EQ(delta.get(Counter::kSlowPathEntries), 0u);
  EXPECT_EQ(delta.get(Counter::kCallsSync), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(delta.get(Counter::kWorkerPoolHits),
            static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(delta.get(Counter::kCdRecycles),
            static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(delta.get(Counter::kWorkersCreated), 0u);
  EXPECT_EQ(delta.get(Counter::kCdsCreated), 0u);
}

TEST(ZeroContention, SimColdPathIsBooked) {
  // The complement: the operations the warm path avoids really are booked
  // when they happen (pool growth on the first call).
  kernel::Machine machine(sim::hector_config(2));
  ppc::PpcFacility facility(machine);
  auto& server_as = machine.create_address_space(700, 0);
  const EntryPointId ep =
      facility.bind({.name = "null"}, &server_as, 700,
                    [](ppc::ServerCtx&, ppc::RegSet& r) {
                      ppc::set_rc(r, Status::kOk);
                    });
  auto& as = machine.create_address_space(100, 0);
  kernel::Process& client = machine.create_process(100, &as, "client", 0);

  const CounterSnapshot before = machine.cpu(0).counters().snapshot();
  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  ASSERT_EQ(facility.call(machine.cpu(0), client, ep, regs), Status::kOk);
  const CounterSnapshot delta =
      machine.cpu(0).counters().snapshot().delta(before);

  EXPECT_GE(delta.get(Counter::kSlowPathEntries), 1u);
  EXPECT_GE(delta.get(Counter::kFrankWorkerRefills), 1u);
  EXPECT_GE(delta.get(Counter::kWorkersCreated), 1u);
}

// ---------------------------------------------------------------------------
// Zero-contention invariant, host runtime
// ---------------------------------------------------------------------------

TEST(ZeroContention, WarmNullPpcOnHostRuntime) {
  rt::Runtime rt(1);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });

  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);  // warmup

  const CounterSnapshot warm = rt.snapshot();
  constexpr int kCalls = 100;
  for (int i = 0; i < kCalls; ++i) {
    ppc::set_op(regs, 1);
    ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  }
  const CounterSnapshot delta = rt.snapshot().delta(warm);

  EXPECT_EQ(delta.get(Counter::kLocksTaken), 0u);
  EXPECT_EQ(delta.get(Counter::kSharedLinesTouched), 0u);
  EXPECT_EQ(delta.get(Counter::kSlowPathEntries), 0u);
  EXPECT_EQ(delta.get(Counter::kCallsSync), static_cast<std::uint64_t>(kCalls));
  // Pool counters are derived at snapshot time from the conservation
  // identities (each call takes exactly one worker and one CD).
  EXPECT_EQ(delta.get(Counter::kWorkerPoolHits),
            static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(delta.get(Counter::kCdRecycles),
            static_cast<std::uint64_t>(kCalls));
}

TEST(ZeroContention, HostHistogramsAreOnAndLockFree) {
  // At sample period 1 every Runtime::call is timed. The warm invariant
  // must hold regardless — a histogram record is a single-writer store on
  // an owned line, never a lock — and every warm call must land exactly one
  // rtt_sync sample.
  rt::Runtime rt(1);
  rt.set_hist_sample_period(1);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });

  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);  // warmup

  const CounterSnapshot warm = rt.snapshot();
  const obs::HistSnapshot hwarm = rt.hist_snapshot(slot);
  constexpr int kCalls = 100;
  for (int i = 0; i < kCalls; ++i) {
    ppc::set_op(regs, 1);
    ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  }
  const CounterSnapshot delta = rt.snapshot().delta(warm);
  const obs::HistSnapshot hdelta = rt.hist_snapshot(slot).delta(hwarm);

  EXPECT_EQ(delta.get(Counter::kLocksTaken), 0u);
  EXPECT_EQ(delta.get(Counter::kSharedLinesTouched), 0u);
  EXPECT_EQ(hdelta.count(obs::Hist::kRttSync),
            static_cast<std::uint64_t>(kCalls));
}

// ---------------------------------------------------------------------------
// Sampled host timing (Runtime::set_hist_sample_period)
// ---------------------------------------------------------------------------

EntryPointId bind_null(rt::Runtime& rt) {
  return rt.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
}

std::uint64_t sync_calls(rt::Runtime& rt, rt::SlotId slot, EntryPointId ep,
                         int n) {
  ppc::RegSet regs;
  for (int i = 0; i < n; ++i) {
    ppc::set_op(regs, 1);
    EXPECT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  }
  return rt.hist_snapshot(slot).count(obs::Hist::kRttSync);
}

TEST(HistSampling, DefaultPeriodTimesOneCallIn64) {
  // The shipped configuration: counters stay exact on every call, the RTT
  // histogram books one sample per period, and sampling takes no lock.
  rt::Runtime rt(1);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = bind_null(rt);
  const std::uint64_t warm_samples = sync_calls(rt, slot, ep, 1);

  const CounterSnapshot warm = rt.snapshot();
  const std::uint64_t samples = sync_calls(rt, slot, ep, 640) - warm_samples;
  const CounterSnapshot delta = rt.snapshot().delta(warm);

  EXPECT_EQ(samples, 10u);
  EXPECT_EQ(delta.get(Counter::kCallsSync), 640u);
  EXPECT_EQ(delta.get(Counter::kLocksTaken), 0u);
  EXPECT_EQ(delta.get(Counter::kSharedLinesTouched), 0u);
}

TEST(HistSampling, PeriodZeroBooksNoSamples) {
  rt::Runtime rt(1);
  rt.set_hist_sample_period(0);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = bind_null(rt);
  EXPECT_EQ(sync_calls(rt, slot, ep, 1000), 0u);
  EXPECT_EQ(rt.slot_snapshot(slot).get(Counter::kCallsSync), 1000u);
}

TEST(HistSampling, PeriodChangeTakesEffectAtTheNextReload) {
  rt::Runtime rt(1);
  rt.set_hist_sample_period(8);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = bind_null(rt);
  // A slot's first call reloads its countdown, so it is sampled.
  EXPECT_EQ(sync_calls(rt, slot, ep, 4), 1u);
  // Four calls into a period of 8: the old countdown still has 5 to go.
  rt.set_hist_sample_period(2);
  EXPECT_EQ(sync_calls(rt, slot, ep, 4), 1u);
  EXPECT_EQ(sync_calls(rt, slot, ep, 1), 2u);  // reload picks up period 2
  EXPECT_EQ(sync_calls(rt, slot, ep, 4), 4u);
}

TEST(HistSampling, UnsampledAsyncCallBooksNoQueueingDelay) {
  // An async call rides its slot's own ring, whose cell has no spare bytes
  // for an enqueue stamp: rt books no async queueing delay at any period
  // (rtt_async stays an id only). The post takes no sampling decision
  // either, so it never spends a sync call's sample.
  rt::Runtime rt(1);
  rt.set_hist_sample_period(8);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = bind_null(rt);
  EXPECT_EQ(sync_calls(rt, slot, ep, 1), 1u);  // warm; the slot's first sample
  for (int i = 0; i < 10; ++i) {
    ppc::RegSet regs;
    ppc::set_op(regs, 1);
    EXPECT_EQ(rt.call_async(slot, 1, ep, regs), Status::kOk);
    EXPECT_EQ(rt.poll(slot), 1u);
  }
  EXPECT_EQ(rt.slot_snapshot(slot).get(Counter::kCallsAsync), 10u);
  EXPECT_EQ(rt.hist_snapshot(slot).count(obs::Hist::kRttAsync), 0u);
  // The countdown still stands where the warm call left it: seven sync
  // calls book nothing, the eighth is sampled.
  EXPECT_EQ(sync_calls(rt, slot, ep, 7), 1u);
  EXPECT_EQ(sync_calls(rt, slot, ep, 1), 2u);
}

TEST(ZeroContention, SimHistogramsRecordDeterministicCycles) {
  // The facility's warm path records whole-call latency in SIMULATED
  // cycles: same schedule, same distribution, and the samples never charge
  // the simulated clock (the call cost is unchanged by observation).
  kernel::Machine machine(sim::hector_config(1));
  ppc::PpcFacility facility(machine);
  auto& server_as = machine.create_address_space(700, 0);
  const EntryPointId ep =
      facility.bind({.name = "null"}, &server_as, 700,
                    [](ppc::ServerCtx&, ppc::RegSet& r) {
                      ppc::set_rc(r, Status::kOk);
                    });
  auto& as = machine.create_address_space(100, 0);
  kernel::Process& client = machine.create_process(100, &as, "client", 0);

  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  ASSERT_EQ(facility.call(machine.cpu(0), client, ep, regs), Status::kOk);

  const obs::HistSnapshot warm = machine.cpu(0).histograms().snapshot();
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    ppc::set_op(regs, 1);
    ASSERT_EQ(facility.call(machine.cpu(0), client, ep, regs), Status::kOk);
  }
  const obs::HistSnapshot delta =
      machine.cpu(0).histograms().snapshot().delta(warm);
  EXPECT_EQ(delta.count(obs::Hist::kRttSync),
            static_cast<std::uint64_t>(kCalls));
  // Identical warm calls cost identical simulated cycles: exactly one
  // bucket is populated.
  int populated = 0;
  for (std::uint64_t c : delta.b[static_cast<std::size_t>(obs::Hist::kRttSync)]) {
    populated += c != 0;
  }
  EXPECT_EQ(populated, 1);
}

TEST(ZeroContention, HostHoldCdServiceCountsHits) {
  rt::Runtime rt(1);
  const rt::SlotId slot = rt.register_thread();
  rt::RtServiceConfig cfg;
  cfg.name = "held";
  cfg.hold_cd = true;
  const EntryPointId ep = rt.bind(
      cfg, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });

  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);  // warmup

  const CounterSnapshot warm = rt.slot_snapshot(slot);
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    ppc::set_op(regs, 1);
    ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  }
  const CounterSnapshot delta = rt.slot_snapshot(slot).delta(warm);

  EXPECT_EQ(delta.get(Counter::kHoldCdHits),
            static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(delta.get(Counter::kCdRecycles), 0u);  // held, never recycled
  EXPECT_EQ(delta.get(Counter::kLocksTaken), 0u);
  EXPECT_EQ(delta.get(Counter::kSharedLinesTouched), 0u);
}

TEST(ZeroContention, HostSlowPathsAreBookedOnSharedBlock) {
  rt::Runtime rt(1);
  const CounterSnapshot before = rt.snapshot();
  rt.bind({.name = "a"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
    ppc::set_rc(regs, Status::kOk);
  });
  const CounterSnapshot delta = rt.snapshot().delta(before);
  EXPECT_EQ(delta.get(Counter::kBinds), 1u);
  EXPECT_GE(delta.get(Counter::kLocksTaken), 1u);
  EXPECT_GE(delta.get(Counter::kSharedLinesTouched), 1u);
  // No slot booked them: the runtime-wide total is the shared block's.
  const CounterSnapshot slot = rt.slot_snapshot(0);
  EXPECT_EQ(slot.get(Counter::kBinds), 0u);
  EXPECT_EQ(slot.get(Counter::kLocksTaken), 0u);
  EXPECT_EQ(slot.get(Counter::kSharedLinesTouched), 0u);
}

// ---------------------------------------------------------------------------
// Per-slot merge semantics
// ---------------------------------------------------------------------------

TEST(Counters, RegistryMergesSlotsAndShared) {
  obs::SlotCounters a;
  obs::SlotCounters b;
  obs::SharedCounters shared;
  a.inc(Counter::kCallsSync, 3);
  a.inc(Counter::kWorkersCreated);
  b.inc(Counter::kCallsSync, 2);
  b.inc(Counter::kCallsAsync, 5);
  shared.inc(Counter::kBinds, 7);

  obs::Registry reg;
  reg.add_slot("cpu0", &a);
  reg.add_slot("cpu1", &b);
  reg.set_shared(&shared);

  ASSERT_EQ(reg.num_slots(), 2u);
  EXPECT_EQ(reg.slot_label(0), "cpu0");
  EXPECT_EQ(reg.slot_snapshot(1).get(Counter::kCallsAsync), 5u);

  const CounterSnapshot total = reg.aggregate();
  EXPECT_EQ(total.get(Counter::kCallsSync), 5u);
  EXPECT_EQ(total.get(Counter::kWorkersCreated), 1u);
  EXPECT_EQ(total.get(Counter::kCallsAsync), 5u);
  EXPECT_EQ(total.get(Counter::kBinds), 7u);

  // The headline invariants are always present in the JSON, even at zero,
  // so a clean run reads as an assertion rather than an omission.
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"locks_taken\":0"), std::string::npos);
  EXPECT_NE(json.find("\"shared_lines_touched\":0"), std::string::npos);
  EXPECT_NE(json.find("\"cpu1\""), std::string::npos);
}

TEST(Counters, RuntimeSnapshotMergesPerSlotBlocks) {
  // Two slots, driven from one thread (slots are addressed explicitly);
  // the machine-wide snapshot must equal the sum of the per-slot views.
  rt::Runtime rt(2);
  const EntryPointId ep = rt.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
  ppc::RegSet regs;
  for (int i = 0; i < 4; ++i) {
    ppc::set_op(regs, 1);
    ASSERT_EQ(rt.call(0, 1, ep, regs), Status::kOk);
  }
  for (int i = 0; i < 9; ++i) {
    ppc::set_op(regs, 1);
    ASSERT_EQ(rt.call(1, 1, ep, regs), Status::kOk);
  }
  EXPECT_EQ(rt.slot_snapshot(0).get(Counter::kCallsSync), 4u);
  EXPECT_EQ(rt.slot_snapshot(1).get(Counter::kCallsSync), 9u);
  EXPECT_EQ(rt.snapshot().get(Counter::kCallsSync), 13u);
  // bind() booked its lock on the shared block; the merged view keeps it
  // while the per-slot views stay clean.
  EXPECT_GE(rt.snapshot().get(Counter::kLocksTaken), 1u);
  EXPECT_EQ(rt.slot_snapshot(0).get(Counter::kLocksTaken), 0u);
}

TEST(Counters, DeltaSaturatesInsteadOfWrapping) {
  CounterSnapshot a;
  CounterSnapshot b;
  a.v[static_cast<std::size_t>(Counter::kCallsSync)] = 3;
  b.v[static_cast<std::size_t>(Counter::kCallsSync)] = 5;
  EXPECT_EQ(a.delta(b).get(Counter::kCallsSync), 0u);  // not 2^64 - 2
  EXPECT_EQ(b.delta(a).get(Counter::kCallsSync), 2u);
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(TraceRing, RetainsOrderAndWraps) {
  obs::TraceRing ring;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.record(i, 0, obs::TraceEvent::kCallEnter, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(ring.size(), 10u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 10u);
  EXPECT_EQ(snap.front().ts, 0u);
  EXPECT_EQ(snap.back().ts, 9u);

  // Overfill: the ring stays bounded and keeps the newest records.
  const std::uint64_t total = obs::TraceRing::kCapacity + 5;
  ring.reset();
  for (std::uint64_t i = 0; i < total; ++i) {
    ring.record(i, 0, obs::TraceEvent::kCallExit, 0);
  }
  EXPECT_EQ(ring.size(), obs::TraceRing::kCapacity);
  EXPECT_EQ(ring.total_recorded(), total);
  snap = ring.snapshot();
  ASSERT_EQ(snap.size(), obs::TraceRing::kCapacity);
  EXPECT_EQ(snap.front().ts, 5u);  // 5 oldest were overwritten
  EXPECT_EQ(snap.back().ts, total - 1);
}

TEST(TraceRing, ChromeExportNamesEvents) {
  obs::TraceRing ring;
  ring.record(1000, 2, obs::TraceEvent::kCallEnter, 42);
  ring.record(2000, 2, obs::TraceEvent::kCallExit, 0);
  const std::string chrome =
      obs::trace_to_chrome_json({{"cpu2", &ring}}, 1000.0);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("call_enter"), std::string::npos);
  const std::string plain = obs::trace_to_json({{"cpu2", &ring}});
  EXPECT_NE(plain.find("call_exit"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bench report sink
// ---------------------------------------------------------------------------

TEST(BenchReport, WritesWellFormedJsonWhereTold) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("HPPC_BENCH_DIR", dir.c_str(), /*overwrite=*/1), 0);

  obs::BenchReport report("obs_selftest");
  report.meta("unit", "ns");
  report.scalar("answer", 42.0);
  Percentiles p;
  for (int i = 1; i <= 1000; ++i) p.add(static_cast<double>(i));
  report.series("lat", p);
  report.row("tbl").cell("cpus", 4).cell("rate", 2.5);
  CounterSnapshot snap;
  snap.v[static_cast<std::size_t>(Counter::kCallsSync)] = 17;
  report.counters("warm", snap);

  ASSERT_TRUE(report.write());
  const std::string written_path = report.path();  // resolved under $HPPC_BENCH_DIR
  unsetenv("HPPC_BENCH_DIR");

  std::ifstream in(written_path);
  ASSERT_TRUE(in.good()) << written_path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  EXPECT_NE(json.find("\"bench\":\"obs_selftest\""), std::string::npos);
  EXPECT_NE(json.find("\"answer\":42"), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"calls_sync\":17"), std::string::npos);
  // Structural sanity: braces and brackets balance.
  int braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_str = !in_str;
    if (in_str) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(written_path.c_str());
}

TEST(BenchReport, EscapesAndSanitizesNumbers) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::json_number(0.0 / 1.0), "0");
  // Non-finite values must not leak into the JSON.
  const std::string inf = obs::json_number(1.0 / 0.0);
  EXPECT_EQ(inf.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace hppc
