// Host-library latency: the PPC pattern's fast path against a global
// locked pool and a message-queue server on this machine, measured with a
// manual steady-clock harness so every distribution lands in
// BENCH_rt_latency.json (mean/p50/p95/p99/p999 per variant).
//
// These are single-thread per-call latencies, not scalability curves — the
// simulator benches cover scaling. The paper's first claim reads off one
// run: rt_ppc_call (the per-processor path, shipped histogram sampling
// included) must not be slower than global_pool_call (the locked pool); CI
// checks the two p50s from a fresh run on its runner.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/bench_metrics.h"
#include "rt/global_pool.h"
#include "rt/msgq.h"
#include "rt/runtime.h"

using namespace hppc;

namespace {

constexpr int kWarmupIters = 2'000;
constexpr int kMeasuredBatches = 2'000;
constexpr int kBatch = 16;  // calls per timed batch (amortizes clock reads)

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Time `op` in batches of kBatch and record per-call nanoseconds.
void measure(Percentiles& out, const std::function<void()>& op) {
  for (int i = 0; i < kWarmupIters; ++i) op();
  for (int b = 0; b < kMeasuredBatches; ++b) {
    const double t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) op();
    out.add((now_ns() - t0) / kBatch);
  }
}

struct NamedDist {
  std::string name;
  Percentiles dist;  // stable storage: BenchReport keeps a pointer
};

}  // namespace

int main() {
  // Keep every recorder alive until the report is written.
  std::vector<NamedDist> dists;
  dists.reserve(16);
  auto bench = [&](const std::string& name, const std::function<void()>& op) {
    dists.push_back(NamedDist{name, {}});
    Percentiles& d = dists.back().dist;
    measure(d, op);
    std::printf("%-24s mean %8.1f ns  p50 %8.1f  p99 %8.1f  p999 %8.1f\n",
                name.c_str(), d.mean(), d.median(), d.p99(), d.p999());
  };

  std::printf("rt host-library per-call latency (ns)\n");
  std::printf("=====================================\n");

  {
    rt::Runtime rt_(1);
    const rt::SlotId slot = rt_.register_thread();
    const EntryPointId ep = rt_.bind(
        {.name = "null"}, 700,
        [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
    ppc::RegSet regs;
    bench("rt_ppc_call", [&] {
      ppc::set_op(regs, 1);
      rt_.call(slot, 1, ep, regs);
    });
  }

  {
    rt::Runtime rt_(1);
    const rt::SlotId slot = rt_.register_thread();
    rt::RtServiceConfig cfg;
    cfg.hold_cd = true;
    const EntryPointId ep = rt_.bind(cfg, 700, [](rt::RtCtx&,
                                                  ppc::RegSet& regs) {
      ppc::set_rc(regs, Status::kOk);
    });
    ppc::RegSet regs;
    bench("rt_ppc_call_hold_cd", [&] {
      ppc::set_op(regs, 1);
      rt_.call(slot, 1, ep, regs);
    });
  }

  {
    rt::Runtime rt_(1);
    const rt::SlotId slot = rt_.register_thread();
    const EntryPointId ep = rt_.bind(
        {.name = "stack"}, 700, [](rt::RtCtx& ctx, ppc::RegSet& regs) {
          auto stack = ctx.stack();
          for (int i = 0; i < 256; i += 64) stack[i] = std::byte{1};
          ppc::set_rc(regs, Status::kOk);
        });
    ppc::RegSet regs;
    bench("rt_ppc_call_stack_use", [&] {
      ppc::set_op(regs, 1);
      rt_.call(slot, 1, ep, regs);
    });
  }

  {
    rt::Runtime rt_(1);
    const rt::SlotId slot = rt_.register_thread();
    const EntryPointId ep = rt_.bind(
        {.name = "null"}, 700,
        [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
    ppc::RegSet regs;
    bench("rt_async_call_plus_poll", [&] {
      ppc::set_op(regs, 1);
      rt_.call_async(slot, 1, ep, regs);
      rt_.poll(slot);
    });
  }

  {
    rt::GlobalPoolRuntime rt_;
    const EntryPointId ep = rt_.bind([](ProgramId, ppc::RegSet& regs) {
      ppc::set_rc(regs, Status::kOk);
    });
    ppc::RegSet regs;
    bench("global_pool_call", [&] {
      ppc::set_op(regs, 1);
      rt_.call(1, ep, regs);
    });
  }

  {
    rt::MsgQueueServer server(1, [](ppc::RegSet& regs) {
      ppc::set_rc(regs, Status::kOk);
    });
    ppc::RegSet regs;
    bench("msg_queue_call", [&] {
      ppc::set_op(regs, 1);
      server.call(regs);
    });
  }

  {
    rt::Runtime rt_(1);
    const rt::SlotId slot = rt_.register_thread();
    const EntryPointId inner = rt_.bind(
        {.name = "inner"}, 700,
        [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
    const EntryPointId outer = rt_.bind(
        {.name = "outer"}, 701, [inner](rt::RtCtx& ctx, ppc::RegSet& regs) {
          ppc::RegSet nested;
          ppc::set_op(nested, 1);
          ppc::set_rc(regs, ctx.call(inner, nested));
        });
    ppc::RegSet regs;
    bench("rt_nested_call", [&] {
      ppc::set_op(regs, 1);
      rt_.call(slot, 1, outer, regs);
    });
  }

  // Counter evidence for the headline claim, from a fresh runtime: after
  // warmup the fast path takes no locks and touches no shared lines.
  rt::Runtime audit(1);
  const rt::SlotId slot = audit.register_thread();
  const EntryPointId ep = audit.bind(
      {.name = "audit"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  audit.call(slot, 1, ep, regs);  // warmup: creates worker + CD
  const obs::CounterSnapshot warm = audit.snapshot();
  for (int i = 0; i < 1000; ++i) {
    ppc::set_op(regs, 1);
    audit.call(slot, 1, ep, regs);
  }
  const obs::CounterSnapshot delta = audit.snapshot().delta(warm);
  std::printf("\nwarm-path audit over 1000 calls: locks_taken=%llu "
              "shared_lines_touched=%llu slow_path_entries=%llu\n",
              static_cast<unsigned long long>(
                  delta.get(obs::Counter::kLocksTaken)),
              static_cast<unsigned long long>(
                  delta.get(obs::Counter::kSharedLinesTouched)),
              static_cast<unsigned long long>(
                  delta.get(obs::Counter::kSlowPathEntries)));

  obs::BenchReport report("rt_latency");
  report.meta("unit", "ns_per_call");
  report.meta("batch", static_cast<double>(kBatch));
  report.meta("batches", static_cast<double>(kMeasuredBatches));
  for (const NamedDist& d : dists) report.series(d.name, d.dist);
  report.counters("rt_warm_1000_calls", delta);
  if (!report.write()) return 1;
  return 0;
}
