// Prices the observability layer itself.
//
// 1. The host gate. The shipped Runtime::call at three histogram sample
//    periods (Runtime::set_hist_sample_period), measured on one runtime in
//    rotating-order triples of batches:
//
//      period 0   no call is timed: the always-on counters and the
//                 per-slot countdown only — the stripped twin
//      shipped    Runtime::kDefaultHistSamplePeriod: 1 call in 64 reads
//                 the clock twice and records kRttSync
//      period 1   every call is timed (the pre-sampling shipped path)
//
//    `host_sampled_overhead_pct` = median(shipped - period 0) / median(period
//    0) prices the always-on timing against the host call it rides on.
//    Budget: <= 10%. This is the CI-gated number.
//    `host_every_call_overhead_pct` (period 1 vs period 0) is diagnostic:
//    what timing every call would cost.
//
// 2. Two micro-benches price one SlotHistograms::record and one
//    SlotCounters::inc (plain add-to-memory; the record adds a bit_width).
//
// 3. The secondary gate, `histograms_on_overhead_pct`: the always-on
//    instrumentation on the simulated facility's warm null PPC — three
//    counter increments plus one histogram record per warm call (see
//    ppc/facility.cpp), priced at the micro-bench marginals, against the host
//    time of one warm simulated call. Budget: < 2%. The increments and
//    records never touch the simulated clock, so in simulated cycles the
//    overhead is exactly zero.
//
// The trace ring is compile-time gated; when HPPC_TRACE is off the span
// hooks expand to nothing and untraced calls skip span minting entirely.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/stats.h"
#include "kernel/machine.h"
#include "obs/bench_metrics.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "ppc/facility.h"
#include "rt/runtime.h"
#include "sim/config.h"

using namespace hppc;

namespace {

constexpr int kWarmup = 2'000;
constexpr int kBatches = 3'000;
constexpr int kBatch = 128;
constexpr std::uint32_t kShippedPeriod = rt::Runtime::kDefaultHistSamplePeriod;
constexpr double kHostBudgetPct = 10.0;
constexpr double kSimBudgetPct = 2.0;

// Always-on instrumentation on the simulated facility's warm null-PPC path:
// three counter increments (calls_sync + worker_pool_hits + cd_recycles)
// and one histogram record (rtt_sync) — see ppc/facility.cpp.
constexpr double kSimIncsPerWarmCall = 3.0;
constexpr double kSimHistRecsPerWarmCall = 1.0;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median per-iteration cost of `body(x)` over a bare xorshift loop. The
/// generator keeps the compiler from collapsing either loop; alternating
/// which loop runs first cancels the position penalty.
template <typename Body>
double marginal_ns(Body body) {
  constexpr int kIters = 200'000;
  auto loop = [&](bool with_body) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    const double t0 = now_ns();
    for (int i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      if (with_body) body(x);
    }
    const double per = (now_ns() - t0) / kIters;
    return x != 0 ? per : per + 1e9;  // keep x live
  };
  Percentiles delta;
  for (int b = 0; b < 32; ++b) {
    double base, with;
    if ((b & 1) == 0) {
      base = loop(false);
      with = loop(true);
    } else {
      with = loop(true);
      base = loop(false);
    }
    delta.add(with - base);
  }
  return std::max(0.0, delta.median());
}

}  // namespace

int main() {
  // -------------------------------------------------------------------
  // 1. Host runtime: period 0 vs shipped vs period 1, rotating batches.
  // -------------------------------------------------------------------
  rt::Runtime rt_(1);
  const rt::SlotId slot = rt_.register_thread();
  const EntryPointId ep = rt_.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
  ppc::RegSet regs;
  auto call_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ppc::set_op(regs, 1);
      rt_.call(slot, 1, ep, regs);
    }
  };
  // A new period takes effect at the slot's next countdown reload, at most
  // kShippedPeriod calls away; the untimed settling calls get it there.
  auto timed_batch = [&](std::uint32_t period) {
    rt_.set_hist_sample_period(period);
    call_n(static_cast<int>(kShippedPeriod));
    const double t0 = now_ns();
    call_n(kBatch);
    return (now_ns() - t0) / kBatch;
  };

  Percentiles off_ns;
  Percentiles shipped_ns;
  Percentiles every_ns;
  Percentiles shipped_delta_ns;
  Percentiles every_delta_ns;
  call_n(kWarmup);
  const obs::CounterSnapshot host_warm_before = rt_.counters(slot).snapshot();
  for (int b = 0; b < kBatches; ++b) {
    // Rotate which variant runs first within the triple: whichever loop
    // runs later inherits the others' branch-predictor and i-cache state,
    // and that position penalty would otherwise masquerade as
    // instrumentation cost. Each triple runs back to back, so the per-batch
    // deltas are immune to the slow clock-frequency and scheduler drift
    // that dominates a shared machine (interference hits the triple
    // symmetrically and washes out of the median delta).
    double off = 0, shipped = 0, every = 0;
    for (int k = 0; k < 3; ++k) {
      switch ((b + k) % 3) {
        case 0: off = timed_batch(0); break;
        case 1: shipped = timed_batch(kShippedPeriod); break;
        default: every = timed_batch(1); break;
      }
    }
    off_ns.add(off);
    shipped_ns.add(shipped);
    every_ns.add(every);
    shipped_delta_ns.add(shipped - off);
    every_delta_ns.add(every - off);
  }
  const obs::CounterSnapshot host_warm =
      rt_.counters(slot).snapshot().delta(host_warm_before);

  // The shipped period books exactly one kRttSync sample per period calls.
  rt_.set_hist_sample_period(kShippedPeriod);
  call_n(static_cast<int>(kShippedPeriod));
  const obs::HistSnapshot hist_before = rt_.hist_snapshot(slot);
  constexpr int kSampleCheckCalls = 100 * static_cast<int>(kShippedPeriod);
  call_n(kSampleCheckCalls);
  const double shipped_samples_per_call =
      static_cast<double>(
          rt_.hist_snapshot(slot).delta(hist_before).count(obs::Hist::kRttSync)) /
      kSampleCheckCalls;

  const double host_sampled_marginal_ns =
      std::max(0.0, shipped_delta_ns.median());
  const double host_every_marginal_ns = std::max(0.0, every_delta_ns.median());
  const double host_sampled_overhead_pct =
      100.0 * host_sampled_marginal_ns / off_ns.median();
  const double host_every_call_overhead_pct =
      100.0 * host_every_marginal_ns / off_ns.median();

  // -------------------------------------------------------------------
  // 2. One histogram record and one counter increment, in isolation.
  // -------------------------------------------------------------------
  obs::SlotHistograms bench_hists;
  obs::SlotCounters bench_counters;
  const double hist_record_ns = marginal_ns([&](std::uint64_t x) {
    bench_hists.record(obs::Hist::kRttSync, x & 0xFFFFu);
  });
  const double counter_inc_ns = marginal_ns([&](std::uint64_t x) {
    bench_counters.inc(static_cast<obs::Counter>(x & 7u));
  });

  // -------------------------------------------------------------------
  // 3. Simulated facility: host nanoseconds per warm null PPC.
  // -------------------------------------------------------------------
  kernel::Machine machine(sim::hector_config(1));
  ppc::PpcFacility ppc_(machine);
  auto& as = machine.create_address_space(100, 0);
  kernel::Process& client =
      machine.create_process(100, &as, "client", 0);
  auto& server_as = machine.create_address_space(700, 0);
  const EntryPointId sim_ep =
      ppc_.bind({.name = "null"}, &server_as, 700,
                [](ppc::ServerCtx&, ppc::RegSet& r) {
                  ppc::set_rc(r, Status::kOk);
                });
  ppc::RegSet sim_regs;
  for (int i = 0; i < kWarmup; ++i) {
    ppc::set_op(sim_regs, 1);
    ppc_.call(machine.cpu(0), client, sim_ep, sim_regs);
  }
  const obs::CounterSnapshot sim_warm_before =
      machine.cpu(0).counters().snapshot();
  Percentiles sim_ns;
  for (int b = 0; b < kBatches / 4; ++b) {
    const double t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      ppc::set_op(sim_regs, 1);
      ppc_.call(machine.cpu(0), client, sim_ep, sim_regs);
    }
    sim_ns.add((now_ns() - t0) / kBatch);
  }
  const obs::CounterSnapshot sim_warm =
      machine.cpu(0).counters().snapshot().delta(sim_warm_before);

  // One rt counter increment and one facility counter increment are the
  // same instruction (SlotCounters::inc), and so are the histogram records:
  // the micro-bench marginals above price the facility's warm path.
  const double counters_on_marginal_ns = kSimIncsPerWarmCall * counter_inc_ns;
  const double histograms_on_marginal_ns =
      counters_on_marginal_ns + kSimHistRecsPerWarmCall * hist_record_ns;
  const double counters_on_overhead_pct =
      100.0 * counters_on_marginal_ns / sim_ns.median();
  const double histograms_on_overhead_pct =
      100.0 * histograms_on_marginal_ns / sim_ns.median();

#if defined(HPPC_TRACE) && HPPC_TRACE
  const double trace_enabled = 1.0;
#else
  const double trace_enabled = 0.0;
#endif

  std::printf("observability overhead on the warm null PPC\n");
  std::printf("===========================================\n");
  std::printf("host rt call, period 0:  min %7.2f ns  p50 %7.2f\n",
              off_ns.min(), off_ns.median());
  std::printf("host rt call, period %-3u min %7.2f ns  p50 %7.2f  p99 %7.2f "
              "(shipped)\n",
              kShippedPeriod, shipped_ns.min(), shipped_ns.median(),
              shipped_ns.p99());
  std::printf("host rt call, period 1:  min %7.2f ns  p50 %7.2f\n",
              every_ns.min(), every_ns.median());
  std::printf("sampled timing:          %7.2f ns/call = %.2f%% of the host "
              "call (budget: %.0f%%); %.4f samples/call\n",
              host_sampled_marginal_ns, host_sampled_overhead_pct,
              kHostBudgetPct, shipped_samples_per_call);
  std::printf("every-call timing:       %7.2f ns/call = %.2f%% of the host "
              "call (diagnostic only)\n",
              host_every_marginal_ns, host_every_call_overhead_pct);
  std::printf("counter inc:             %7.3f ns\n", counter_inc_ns);
  std::printf("hist record:             %7.3f ns\n", hist_record_ns);
  std::printf("sim warm null PPC:       %7.2f ns/call host time\n",
              sim_ns.median());
  std::printf("counters-on overhead:    %.3f%% of warm null-PPC latency "
              "(%.0f increments x %.3f ns)\n",
              counters_on_overhead_pct, kSimIncsPerWarmCall, counter_inc_ns);
  std::printf("histograms-on overhead:  %.3f%% of warm null-PPC latency "
              "(budget: %.0f%%; + %.0f record x %.3f ns)\n",
              histograms_on_overhead_pct, kSimBudgetPct,
              kSimHistRecsPerWarmCall, hist_record_ns);
  std::printf("simulated-cycle cost:    0 (counters and histograms never "
              "touch the sim clock)\n");
  std::printf("warm-path locks taken:   host %llu, sim %llu (must be 0)\n",
              static_cast<unsigned long long>(
                  host_warm.get(obs::Counter::kLocksTaken)),
              static_cast<unsigned long long>(
                  sim_warm.get(obs::Counter::kLocksTaken)));
  std::printf("trace hooks:             %s\n",
              trace_enabled != 0.0
                  ? "compiled in (HPPC_TRACE=1)"
                  : "compiled out (HPPC_TRACE off): zero instructions");

  obs::BenchReport report("obs_overhead");
  report.meta("unit", "ns_per_call");
  report.meta("trace_enabled", trace_enabled);
  // Which scalar the CI overhead gate reads (and what it budgets).
  report.meta("ci_gate_field", "host_sampled_overhead_pct");
  report.series("host_call_period0_ns", off_ns);
  report.series("host_call_shipped_ns", shipped_ns);
  report.series("host_call_period1_ns", every_ns);
  report.series("sim_null_ppc_host_ns", sim_ns);
  report.scalar("shipped_sample_period", kShippedPeriod);
  report.scalar("shipped_hist_samples_per_call", shipped_samples_per_call);
  report.scalar("host_sampled_marginal_ns_per_call", host_sampled_marginal_ns);
  report.scalar("host_every_call_marginal_ns_per_call",
                host_every_marginal_ns);
  report.scalar("host_sampled_overhead_pct", host_sampled_overhead_pct);
  report.scalar("host_every_call_overhead_pct", host_every_call_overhead_pct);
  report.scalar("host_budget_pct", kHostBudgetPct);
  report.scalar("counter_inc_ns", counter_inc_ns);
  report.scalar("hist_record_ns", hist_record_ns);
  report.scalar("sim_incs_per_warm_call", kSimIncsPerWarmCall);
  report.scalar("sim_hist_recs_per_warm_call", kSimHistRecsPerWarmCall);
  report.scalar("counters_on_overhead_pct", counters_on_overhead_pct);
  report.scalar("histograms_on_overhead_pct", histograms_on_overhead_pct);
  report.scalar("sim_budget_pct", kSimBudgetPct);
  report.counters("host_warm", host_warm);
  report.counters("sim_warm", sim_warm);
  if (!report.write()) return 1;
  if (host_warm.get(obs::Counter::kLocksTaken) != 0 ||
      sim_warm.get(obs::Counter::kLocksTaken) != 0) {
    std::printf("FAIL: warm fast path took a lock\n");
    return 3;
  }
  if (trace_enabled != 0.0) {
    // A trace build's call path includes the span machinery; the budgets
    // are claims about the always-on counters + sampled histograms, judged
    // on the shipping (trace-off) configuration.
    std::printf("NOTE: HPPC_TRACE build - the host call includes the "
                "tracer; the overhead gates apply to trace-off builds.\n");
    return 0;
  }
  if (host_sampled_overhead_pct > kHostBudgetPct) {
    std::printf("FAIL: sampled timing costs %.2f%% of the host call\n",
                host_sampled_overhead_pct);
    return 2;
  }
  if (histograms_on_overhead_pct >= kSimBudgetPct) {
    std::printf("FAIL: instrumentation costs %.3f%% of the sim call\n",
                histograms_on_overhead_pct);
    return 4;
  }
  return 0;
}
