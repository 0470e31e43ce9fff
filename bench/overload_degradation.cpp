// Overload degradation: what happens to cross-slot call throughput when
// offered load exceeds the served slot's capacity. The legacy kBlock
// policy turns every excess caller into a spinner parked on the ring; the
// admission-controlled configuration (shed watermark + fail-fast retry)
// refuses work at the door instead, so the server keeps draining at close
// to its peak rate while the excess is rejected in O(1).
//
// Protocol: first a closed-loop probe measures peak capacity C against a
// busy-polling owner (the queued regime — serve() would let callers
// direct-execute and there would be no queue to overload). Then an open
// paced loop offers m*C for m in {0.5, 1, 2, 4} with shedding enabled and
// records completed/shed/expired rates per multiple.
//
// Acceptance (checked in CI from BENCH_overload_degradation.json):
// completed throughput at 2x offered load stays >= 70% of peak, calls
// were actually shed (calls_shed > 0), and the bench terminates — under
// overload no caller ever hangs, because every admission failure resolves
// to kOverloaded and every queued call carries a deadline.
//
// Capacity note: "offered" load above capacity is really "attempted" —
// the pacer generates calls only as fast as its own core allows, and on a
// 4-vCPU host the callers, the pacer and the owner share four cores. That
// still saturates the ring (attempts outpace the drain by construction),
// which is the regime under test.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "obs/bench_metrics.h"
#include "rt/runtime.h"

using namespace hppc;

namespace {

// Synchronous callers form a closed loop: at most kCallers cells can be
// outstanding at once, so the watermark must sit below that for admission
// control to ever engage. 8 callers against a watermark of 6 gives the
// queue room to breathe at low load and something to shed at high load.
constexpr int kCallers = 8;
constexpr std::uint32_t kShedWatermark = 6;  // of the 64-cell ring
constexpr double kPhaseSeconds = 0.25;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

EntryPointId bind_null(rt::Runtime& rt) {
  return rt.bind({.name = "null"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
    ppc::set_rc(regs, Status::kOk);
  });
}

struct PhaseTally {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;      // kOverloaded (watermark or fail-fast)
  std::uint64_t expired = 0;   // kDeadlineExceeded
  std::uint64_t attempted = 0;
};

/// Run `n_callers` paced callers against the busy-polled slot 0 for
/// `kPhaseSeconds`. `interval_ns` == 0 means closed loop (no pacing).
/// Completed-call latencies land in `lat` (merged at thread exit) — the
/// bounded-tail evidence: shedding keeps the p99.9 of the calls that ARE
/// admitted from growing with offered load.
PhaseTally run_phase(rt::Runtime& rt, EntryPointId ep, double interval_ns,
                     const rt::CallOptions& opts, Percentiles* lat,
                     int n_callers = kCallers) {
  std::atomic<std::uint64_t> ok{0}, shed{0}, expired{0}, attempted{0};
  std::mutex lat_mu;
  std::vector<std::thread> threads;
  for (int c = 0; c < n_callers; ++c) {
    threads.emplace_back([&, c] {
      const rt::SlotId my = rt.register_thread();
      const double t_end = now_ns() + kPhaseSeconds * 1e9;
      // Per-caller pacing: each caller offers 1/n_callers of the target
      // rate. Debt does not accumulate — a caller that falls behind
      // resumes from "now" rather than bursting, so the offered rate is
      // capped at the target instead of oscillating around it.
      double next = now_ns() + interval_ns * c / n_callers;  // desynchronize
      std::uint64_t n_ok = 0, n_shed = 0, n_expired = 0, n_att = 0;
      std::vector<double> my_lat;
      ppc::RegSet regs;
      while (true) {
        const double now = now_ns();
        if (now >= t_end) break;
        if (interval_ns > 0) {
          if (now < next) {
            std::this_thread::yield();
            continue;
          }
          next = (now - next > 4 * interval_ns) ? now : next + interval_ns;
        }
        ppc::set_op(regs, 1);
        ++n_att;
        const double t0 = now_ns();
        switch (rt.call_remote(my, 0, my, ep, regs, opts)) {
          case Status::kOk:
            ++n_ok;
            if (lat != nullptr) my_lat.push_back(now_ns() - t0);
            break;
          case Status::kOverloaded: ++n_shed; break;
          case Status::kDeadlineExceeded: ++n_expired; break;
          default: break;
        }
      }
      ok.fetch_add(n_ok);
      shed.fetch_add(n_shed);
      expired.fetch_add(n_expired);
      attempted.fetch_add(n_att);
      if (lat != nullptr) {
        const std::lock_guard<std::mutex> lock(lat_mu);
        for (double v : my_lat) lat->add(v);
      }
    });
  }
  for (auto& t : threads) t.join();
  return PhaseTally{ok.load(), shed.load(), expired.load(), attempted.load()};
}

}  // namespace

int main() {
  // Slot registration is per-thread and monotonic, and every phase spawns
  // fresh caller threads: one owner + kCallers slots for each of the five
  // classless phases (probe + four offered-load multiples), plus one
  // generator slot for each of the two traffic-class probe phases.
  rt::Runtime rt(1 + kCallers * 5 + 2);
  static_assert(kShedWatermark < kCallers,
                "sync callers cap queue depth at kCallers; a higher "
                "watermark would never shed");
  const EntryPointId ep = bind_null(rt);

  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const rt::SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    // Busy-poll so the gate stays held: every call must queue, which is
    // the only regime where "overload" exists for this layer.
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
    rt.poll(s);
    rt.enter_idle(s);
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  // Phase 0 — capacity probe: closed loop, legacy blocking policy, no
  // shedding. Completed rate == the slot's drain capacity here.
  rt::CallOptions block_opts;  // defaults: kBlock, no deadline
  const PhaseTally probe = run_phase(rt, ep, 0.0, block_opts, nullptr);
  const double peak = probe.ok / kPhaseSeconds;
  std::printf("capacity probe: %10.0f calls/s (closed loop, %d callers)\n",
              peak, kCallers);

  // Overload phases: admission control on, bounded retries, deadlines.
  rt.set_shed_watermark(kShedWatermark);
  rt::CallOptions opts;
  opts.deadline_cycles = 100'000'000;  // ~tens of ms: bounds the worst case
  opts.retry = rt::RetryPolicy::kFailFast;

  const obs::CounterSnapshot before = rt.snapshot();
  struct RowOut {
    double multiple, offered, completed, shed, expired;
    std::string label;
    Percentiles lat;  // stable storage: BenchReport keeps a pointer
  };
  std::vector<RowOut> rows;
  rows.reserve(4);
  double completed_at_2x = 0, shed_at_2x = 0;
  for (const double m : {0.5, 1.0, 2.0, 4.0}) {
    const double offered = m * peak;
    const double interval_ns = 1e9 * kCallers / offered;  // per caller
    rows.push_back(RowOut{});
    RowOut& r = rows.back();
    const PhaseTally t = run_phase(rt, ep, interval_ns, opts, &r.lat);
    r.multiple = m;
    r.offered = t.attempted / kPhaseSeconds;
    r.completed = t.ok / kPhaseSeconds;
    r.shed = t.shed / kPhaseSeconds;
    r.expired = t.expired / kPhaseSeconds;
    char label[32];
    std::snprintf(label, sizeof label, "latency_ns_%gx", m);
    r.label = label;
    if (m == 2.0) {
      completed_at_2x = r.completed;
      shed_at_2x = r.shed;
    }
    std::printf(
        "offered %4.1fx (%10.0f/s): completed %10.0f/s  shed %9.0f/s  "
        "expired %7.0f/s  p999 %8.0f ns\n",
        m, r.offered, r.completed, r.shed, r.expired,
        r.lat.count() > 0 ? r.lat.p999() : 0.0);
  }
  const obs::CounterSnapshot delta = rt.snapshot().delta(before);

  // ----- traffic classes: interactive latency under bulk overload -----
  //
  // Per-class watermarks: interactive keeps the classless depth, bulk
  // sheds at depth 2. One generator thread paces an interactive probe
  // stream at 1/4 of peak; in the loaded phase it additionally fires a
  // burst of bulk fire-and-forget calls before every probe, lifting the
  // total offered load to ~2x peak through the SAME served slot. Both
  // phases have identical thread topology — on a one-CPU runner that is
  // the only way the latency delta measures the runtime's drain policy
  // rather than the host scheduler — so what the gated ratio isolates is
  // exactly the claim: interactive-first drain ordering plus the shallow
  // bulk watermark keep the interactive p99.9 flat (within 1.5x of the
  // unloaded baseline, gated in CI) while the bulk class absorbs the
  // shedding at the admission door.
  rt.set_shed_watermark(rt::TrafficClass::kInteractive, kShedWatermark);
  rt.set_shed_watermark(rt::TrafficClass::kBulk, 2);
  const double inter_rate = 0.25 * peak;
  const double inter_interval_ns = 1e9 / inter_rate;
  const int kBulkBurst = 7;  // per probe: ~1.75x peak of bulk offered
  rt::CallOptions inter_opts = opts;  // interactive is the default class
  rt::CallOptions bulk_opts = opts;
  bulk_opts.traffic_class = rt::TrafficClass::kBulk;

  // One phase of the paced probe loop: `burst` bulk asyncs ahead of every
  // measured interactive call (0 = unloaded baseline).
  const auto run_probe = [&](int burst, Percentiles* lat, PhaseTally* inter,
                             PhaseTally* bulk) {
    std::thread gen([&, burst] {
      const rt::SlotId my = rt.register_thread();
      const double t_end = now_ns() + kPhaseSeconds * 1e9;
      double next = now_ns();
      ppc::RegSet regs;
      while (true) {
        const double now = now_ns();
        if (now >= t_end) break;
        if (now < next) {
          std::this_thread::yield();
          continue;
        }
        next = (now - next > 4 * inter_interval_ns) ? now
                                                    : next + inter_interval_ns;
        for (int b = 0; b < burst; ++b) {
          ppc::set_op(regs, 1);
          ++bulk->attempted;
          switch (rt.call_remote_async(my, 0, my, ep, regs, bulk_opts)) {
            case Status::kOk: ++bulk->ok; break;
            case Status::kOverloaded: ++bulk->shed; break;
            case Status::kDeadlineExceeded: ++bulk->expired; break;
            default: break;
          }
        }
        ppc::set_op(regs, 1);
        ++inter->attempted;
        const double t0 = now_ns();
        switch (rt.call_remote(my, 0, my, ep, regs, inter_opts)) {
          case Status::kOk:
            ++inter->ok;
            lat->add(now_ns() - t0);
            break;
          case Status::kOverloaded: ++inter->shed; break;
          case Status::kDeadlineExceeded: ++inter->expired; break;
          default: break;
        }
      }
    });
    gen.join();
  };

  Percentiles inter_lat_unloaded;
  PhaseTally inter_unloaded{}, bulk_unloaded{};
  run_probe(0, &inter_lat_unloaded, &inter_unloaded, &bulk_unloaded);

  const obs::CounterSnapshot before_mixed = rt.snapshot();
  Percentiles inter_lat_2x;
  PhaseTally inter_2x{}, bulk_2x{};
  run_probe(kBulkBurst, &inter_lat_2x, &inter_2x, &bulk_2x);
  const obs::CounterSnapshot class_delta = rt.snapshot().delta(before_mixed);

  stop.store(true, std::memory_order_release);
  owner.join();

  const double inter_p999_unloaded =
      inter_lat_unloaded.count() > 0 ? inter_lat_unloaded.p999() : 0;
  const double inter_p999_2x =
      inter_lat_2x.count() > 0 ? inter_lat_2x.p999() : 0;
  const double inter_p999_ratio =
      inter_p999_unloaded > 0 ? inter_p999_2x / inter_p999_unloaded : 0;
  const double bulk_shed_rate = bulk_2x.shed / kPhaseSeconds;
  std::printf(
      "interactive p999 %8.0f ns unloaded -> %8.0f ns under 2x mixed load "
      "(%.2fx); bulk shed %9.0f/s\n",
      inter_p999_unloaded, inter_p999_2x, inter_p999_ratio, bulk_shed_rate);

  const double ratio = peak > 0 ? completed_at_2x / peak : 0;
  std::printf("degradation at 2x offered load: %.0f%% of peak "
              "(shed %10.0f/s)\n", 100 * ratio, shed_at_2x);

  obs::BenchReport report("overload_degradation");
  report.meta("unit", "calls_per_sec");
  report.meta("callers", static_cast<double>(kCallers));
  report.meta("shed_watermark", static_cast<double>(kShedWatermark));
  report.meta("phase_seconds", kPhaseSeconds);
  report.scalar("peak_calls_per_sec", peak);
  report.scalar("completed_at_2x_per_sec", completed_at_2x);
  report.scalar("throughput_retention_at_2x", ratio);
  report.scalar("interactive_p999_unloaded_ns", inter_p999_unloaded);
  report.scalar("interactive_p999_at_2x_ns", inter_p999_2x);
  report.scalar("interactive_p999_ratio_at_2x", inter_p999_ratio);
  report.scalar("bulk_shed_at_2x_per_sec", bulk_shed_rate);
  for (const RowOut& r : rows) {
    report.row("degradation")
        .cell("offered_multiple", r.multiple)
        .cell("offered_per_sec", r.offered)
        .cell("completed_per_sec", r.completed)
        .cell("shed_per_sec", r.shed)
        .cell("deadline_expired_per_sec", r.expired);
    if (r.lat.count() > 0) report.series(r.label, r.lat);
  }
  // Per-class curves: one row per (phase, class); latency series for the
  // interactive stream in both phases (bulk is fire-and-forget, so its
  // story is the admission tallies, not a latency curve).
  const auto class_row = [&](const char* table, const PhaseTally& t) {
    report.row(table)
        .cell("offered_per_sec", t.attempted / kPhaseSeconds)
        .cell("completed_per_sec", t.ok / kPhaseSeconds)
        .cell("shed_per_sec", t.shed / kPhaseSeconds)
        .cell("deadline_expired_per_sec", t.expired / kPhaseSeconds);
  };
  class_row("interactive_unloaded", inter_unloaded);
  class_row("interactive_at_2x", inter_2x);
  class_row("bulk_at_2x", bulk_2x);
  if (inter_lat_unloaded.count() > 0) {
    report.series("latency_ns_interactive_unloaded", inter_lat_unloaded);
  }
  if (inter_lat_2x.count() > 0) {
    report.series("latency_ns_interactive_2x", inter_lat_2x);
  }
  report.counters("overload_phases", delta);
  report.counters("class_phases", class_delta);
  if (!report.write()) return 1;
  return 0;
}
