// Cross-slot call latency: the xcall layer's synchronous round trip in its
// three configurations — direct execution on an idle slot, the adaptive
// serve() mix, and the pure ring path against a busy-polling owner —
// against the legacy cross-address-space baseline (the mutex+condvar
// message-queue server). Distributions land in
// BENCH_xcall_latency.json; the speedup_vs_msgq_* scalars and the
// xcall_warm_phase counter block are the acceptance evidence: cross-slot
// PPC beats the message queue by the paper's margin and never allocates
// once warm.
//
// NOTE: on a multi-core host (the committed numbers come from a 4-vCPU
// VM) a ring-path round trip against a polling owner costs a few
// cross-core cache-line transfers; a parked or time-sliced owner adds
// scheduler context switches, the floor for any two-thread handoff, msgq
// included. The direct path exists precisely to dodge both.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/heap_audit.h"
#include "common/stats.h"
#include "obs/bench_metrics.h"
#include "rt/msgq.h"
#include "rt/runtime.h"
#include "rt/xcall.h"

using namespace hppc;

namespace {

constexpr int kWarmupIters = 2'000;
constexpr int kWarmupBatches = 64;  // timed like the real ones, discarded
constexpr int kMeasuredBatches = 2'000;
constexpr int kBatch = 16;  // calls per timed batch (amortizes clock reads)
// Alternating typed/frame direct-path rounds behind frame_abi_speedup_direct.
constexpr int kSpeedupRounds = 9;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Time `op` in batches of kBatch and record per-call nanoseconds.
/// `calls_per_op` > 1 when one op carries several calls (vectored
/// submission): the recorded series is still per-CALL nanoseconds, so the
/// batched rows compare directly against the single-cell ones.
void measure(Percentiles& out, const std::function<void()>& op,
             int calls_per_op = 1) {
  for (int i = 0; i < kWarmupIters; ++i) op();
  // Run the measurement loop itself warm before recording: the first timed
  // batches pay one-off costs (cold clock path, branch history, the
  // scheduler settling after thread setup) that used to land in the
  // recorded max as a several-microsecond outlier over a ~20 ns p50.
  double discard = 0;
  for (int b = 0; b < kWarmupBatches; ++b) {
    const double t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) op();
    discard += (now_ns() - t0) / kBatch;
  }
  static_cast<void>(discard);
  for (int b = 0; b < kMeasuredBatches; ++b) {
    const double t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) op();
    out.add((now_ns() - t0) / (kBatch * calls_per_op));
  }
}

struct NamedDist {
  std::string name;
  Percentiles dist;  // stable storage: BenchReport keeps a pointer
};

EntryPointId bind_null(rt::Runtime& rt) {
  return rt.bind({.name = "null"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
    ppc::set_rc(regs, Status::kOk);
  });
}

/// The frame-ABI null service: a raw function pointer, no worker, no CD —
/// the Figure-4 register contract with nothing in the way.
rt::FrameServiceId bind_null_frame(rt::Runtime& rt) {
  return rt.bind_frame(
      700, [](void*, rt::FrameCtx&, rt::CallFrame&) { return Status::kOk; },
      nullptr);
}

}  // namespace

int main() {
  std::vector<NamedDist> dists;
  dists.reserve(16);
  double means[16] = {};
  int n_dists = 0;
  auto bench_n = [&](const std::string& name, int calls_per_op,
                     const std::function<void()>& op) {
    dists.push_back(NamedDist{name, {}});
    Percentiles& d = dists.back().dist;
    measure(d, op, calls_per_op);
    means[n_dists++] = d.mean();
    std::printf("%-24s mean %8.1f ns  p50 %8.1f  p99 %8.1f  p999 %8.1f\n",
                name.c_str(), d.mean(), d.median(), d.p99(), d.p999());
  };
  auto bench = [&](const std::string& name, const std::function<void()>& op) {
    bench_n(name, 1, op);
  };

  std::printf("cross-slot call round-trip latency (ns)\n");
  std::printf("=======================================\n");

  // 1. Direct path: the target slot is never registered, so its gate is
  // idle and every call migrates onto the caller (LRPC-style). This is the
  // adaptive fast case: no context switch, no allocation.
  {
    rt::Runtime rt_(2);
    const rt::SlotId me = rt_.register_thread();
    const EntryPointId ep = bind_null(rt_);
    ppc::RegSet regs;
    bench("xcall_rtt_direct", [&] {
      ppc::set_op(regs, 1);
      rt_.call_remote(me, 1, 1, ep, regs);
    });
  }

  // 2. Adaptive mix: the owner sits in serve(). Whenever it is parked the
  // caller steals and runs directly; in the windows where it holds the
  // gate the call rides the ring. This is the deployment configuration.
  {
    rt::Runtime rt_(2);
    const rt::SlotId me = rt_.register_thread();
    const EntryPointId ep = bind_null(rt_);
    std::atomic<bool> stop{false};
    std::thread server([&] { rt_.serve(rt_.register_thread(), stop); });
    ppc::RegSet regs;
    bench("xcall_rtt_served", [&] {
      ppc::set_op(regs, 1);
      rt_.call_remote(me, 1, 1, ep, regs);
    });
    stop.store(true, std::memory_order_release);
    server.join();
  }

  // 3. Pure ring path: the owner busy-polls and never parks, so the gate
  // is always held and every call posts a cell and waits. With the owner
  // on its own core this pays the cross-core line transfers of a post and
  // a completion.
  {
    rt::Runtime rt_(2);
    const rt::SlotId me = rt_.register_thread();
    const EntryPointId ep = bind_null(rt_);
    std::atomic<bool> stop{false};
    std::atomic<bool> up{false};
    std::thread owner([&] {
      const rt::SlotId s = rt_.register_thread();
      up.store(true, std::memory_order_release);
      // Poll-driven owner: yields the CPU when a poll comes up empty (a
      // non-yielding spin would hold its core for a whole quantum when
      // the callers outnumber the cores) but never parks, so the gate
      // stays held and no call can steal.
      while (!stop.load(std::memory_order_acquire)) {
        if (rt_.poll(s) == 0) std::this_thread::yield();
      }
    });
    while (!up.load(std::memory_order_acquire)) std::this_thread::yield();
    ppc::RegSet regs;
    bench("xcall_rtt_polling", [&] {
      ppc::set_op(regs, 1);
      rt_.call_remote(me, 1, 1, ep, regs);
    });
    stop.store(true, std::memory_order_release);
    owner.join();
  }

  // 4. Kernel baseline: the mutex+condvar message-queue server (§5's
  // message-passing comparison point).
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

  const double direct_mean = means[0];
  const double served_mean = means[1];
  const double polling_mean = means[2];
  const double msgq_mean = means[3];

  // 5. Batched ring path: one call_remote_batch of B calls against the
  // same busy-polling owner as (3). One claim CAS + one release store +
  // one gate check carry the whole run, and the owner retires it in one
  // drain pass — so the two-context-switch toll of (3) is paid once per
  // BATCH, not once per call. The series records per-CALL nanoseconds;
  // b=1 reproduces the single-cell post cost through the batched entry
  // point, and the b=16/b=64 rows are the amortization evidence.
  double batched_mean_b1 = 0;
  double batched_mean_b16 = 0;
  double batched_mean_b64 = 0;
  for (const int b : {1, 4, 16, 64}) {
    rt::Runtime rt_(2);
    const rt::SlotId me_ = rt_.register_thread();
    const EntryPointId ep = bind_null(rt_);
    std::atomic<bool> stop{false};
    std::atomic<bool> up{false};
    std::thread owner([&] {
      const rt::SlotId s = rt_.register_thread();
      up.store(true, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        if (rt_.poll(s) == 0) std::this_thread::yield();
      }
    });
    while (!up.load(std::memory_order_acquire)) std::this_thread::yield();
    std::vector<ppc::RegSet> batch(static_cast<std::size_t>(b));
    bench_n("batched_rtt_per_call_b" + std::to_string(b), b, [&] {
      for (ppc::RegSet& r : batch) ppc::set_op(r, 1);
      rt_.call_remote_batch(me_, 1, 1, ep,
                            std::span<ppc::RegSet>(batch.data(), batch.size()));
    });
    const double mean = dists.back().dist.mean();
    if (b == 1) batched_mean_b1 = mean;
    if (b == 16) batched_mean_b16 = mean;
    if (b == 64) batched_mean_b64 = mean;
    stop.store(true, std::memory_order_release);
    owner.join();
  }

  // 6. The frame ABI on the same two shapes. frame_rtt_direct repeats (1)
  // through the Figure-4 register contract against a frame entry: the
  // same entry-table load, but no worker/CD acquisition and no
  // std::function dispatch (both share the rest of the engine). The batched
  // rows repeat the
  // b16/b64 ring measurements with the whole request inlined in each 64 B
  // cell. The frame_abi_speedup_* scalars compare frame vs typed within
  // THIS run — same machine, same clock path — which is what the CI gate
  // asserts on.
  double frame_direct_mean = 0;
  {
    rt::Runtime rt_(2);
    const rt::SlotId me_ = rt_.register_thread();
    const rt::FrameServiceId svc = bind_null_frame(rt_);
    rt::CallFrame f = rt::make_frame(svc, 1);
    bench("frame_rtt_direct", [&] { rt_.call_remote_frame(me_, 1, 1, f); });
    frame_direct_mean = dists.back().dist.mean();
  }
  // The frame/typed direct ratio that CI gates: kSpeedupRounds rounds, each
  // timing the typed and the frame direct call back to back in one
  // runtime, so a burst of machine noise lands in one round's ratio rather
  // than in one lane's series; the scalar is the median round.
  std::array<double, kSpeedupRounds> speedup_rounds{};
  {
    rt::Runtime rt_(2);
    const rt::SlotId me_ = rt_.register_thread();
    const EntryPointId ep = bind_null(rt_);
    const rt::FrameServiceId svc = bind_null_frame(rt_);
    ppc::RegSet regs;
    rt::CallFrame f = rt::make_frame(svc, 1);
    for (double& ratio : speedup_rounds) {
      Percentiles typed;
      Percentiles frame;
      measure(typed, [&] {
        ppc::set_op(regs, 1);
        rt_.call_remote(me_, 1, 1, ep, regs);
      });
      measure(frame, [&] { rt_.call_remote_frame(me_, 1, 1, f); });
      ratio = typed.mean() / frame.mean();
    }
  }
  std::array<double, kSpeedupRounds> sorted_rounds = speedup_rounds;
  std::sort(sorted_rounds.begin(), sorted_rounds.end());
  const double frame_speedup_direct = sorted_rounds[kSpeedupRounds / 2];
  std::printf("frame/typed direct speedup per round:");
  for (const double r : speedup_rounds) std::printf(" %.2f", r);
  std::printf("  (median %.2fx)\n", frame_speedup_direct);

  double frame_batched_mean_b16 = 0;
  double frame_batched_mean_b64 = 0;
  for (const int b : {16, 64}) {
    rt::Runtime rt_(2);
    const rt::SlotId me_ = rt_.register_thread();
    const rt::FrameServiceId svc = bind_null_frame(rt_);
    std::atomic<bool> stop{false};
    std::atomic<bool> up{false};
    std::thread owner([&] {
      const rt::SlotId s = rt_.register_thread();
      up.store(true, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        if (rt_.poll(s) == 0) std::this_thread::yield();
      }
    });
    while (!up.load(std::memory_order_acquire)) std::this_thread::yield();
    std::vector<rt::CallFrame> batch(static_cast<std::size_t>(b));
    bench_n("frame_batched_rtt_per_call_b" + std::to_string(b), b, [&] {
      for (rt::CallFrame& f : batch) f = rt::make_frame(svc, 1);
      rt_.call_remote_frame_batch(
          me_, 1, 1, std::span<rt::CallFrame>(batch.data(), batch.size()));
    });
    const double mean = dists.back().dist.mean();
    if (b == 16) frame_batched_mean_b16 = mean;
    if (b == 64) frame_batched_mean_b64 = mean;
    stop.store(true, std::memory_order_release);
    owner.join();
  }

  // Throughput as closed-loop callers contend for one busy-polling slot,
  // submitting through the batched path (batch=16 — the KvService
  // multi-get shape). Each caller sleeps kThinkUs between submissions,
  // modelling a client that does its own work between RPC bursts: one
  // caller is latency-bound (rate = batch / (think + rtt)), and stacking
  // callers raises offered load until the server saturates — at 16
  // callers the offered load exceeds the measured per-call CPU ceiling,
  // so the 16-caller row is the runtime's actual capacity under 16-way
  // ring + head-scan + waiter multiplexing. The think time is the point,
  // not a nuisance: with 16 callers on a 4-vCPU host a zero-think
  // workload is CPU-bound from a handful of callers on (every core is
  // already doing cell work), so its scaling curve flattens by
  // construction and measures the core count, not the runtime. A single-call series runs alongside as the unbatched
  // reference; its saturation ceiling is ~12x lower — that gap is the
  // batched submission win at capacity.
  struct ThroughputRow {
    int callers;
    double calls_per_sec;
  };
  std::vector<ThroughputRow> tput;
  std::vector<ThroughputRow> tput_single;
  double tput_rate_1 = 0;
  double tput_rate_16 = 0;
  for (const bool batched : {false, true}) {
    for (const int callers : {1, 2, 4, 8, 16}) {
      rt::Runtime rt_(static_cast<std::uint32_t>(callers) + 1);
      const EntryPointId ep = bind_null(rt_);
      std::atomic<bool> stop{false};
      std::atomic<bool> up{false};
      std::thread server([&] {
        const rt::SlotId s = rt_.register_thread();
        up.store(true, std::memory_order_release);
        while (!stop.load(std::memory_order_acquire)) {
          if (rt_.poll(s) == 0) std::this_thread::yield();
        }
      });
      while (!up.load(std::memory_order_acquire)) std::this_thread::yield();
      constexpr int kTotalCalls = 48'000;
      constexpr int kTputBatch = 16;
      constexpr auto kThink = std::chrono::microseconds(50);
      const int calls_each = kTotalCalls / callers;
      std::vector<std::thread> threads;
      const double t0 = now_ns();
      for (int c = 0; c < callers; ++c) {
        threads.emplace_back([&] {
          const rt::SlotId my = rt_.register_thread();
          if (batched) {
            std::array<ppc::RegSet, kTputBatch> b{};
            for (int i = 0; i < calls_each; i += kTputBatch) {
              std::this_thread::sleep_for(kThink);
              for (ppc::RegSet& r : b) ppc::set_op(r, 1);
              rt_.call_remote_batch(my, 0, my, ep, std::span<ppc::RegSet>(b));
            }
          } else {
            ppc::RegSet regs;
            for (int i = 0; i < calls_each; i += kTputBatch) {
              std::this_thread::sleep_for(kThink);
              for (int k = 0; k < kTputBatch; ++k) {
                ppc::set_op(regs, 1);
                rt_.call_remote(my, 0, my, ep, regs);
              }
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      const double secs = (now_ns() - t0) * 1e-9;
      stop.store(true, std::memory_order_release);
      server.join();
      const double rate = callers * calls_each / secs;
      if (batched) {
        tput.push_back({callers, rate});
        if (callers == 1) tput_rate_1 = rate;
        if (callers == 16) tput_rate_16 = rate;
      } else {
        tput_single.push_back({callers, rate});
      }
      std::printf("throughput[%s] %2d caller(s): %10.0f calls/s\n",
                  batched ? "batch16" : "single", callers, rate);
    }
  }

  // Counter evidence, single-threaded so the snapshot cannot race: after
  // warmup, 1000 cross-slot calls perform zero heap allocations (counted
  // operator new calls, common/heap_audit.h), zero ring overflows, zero
  // locks. Every warm-phase block carries its window's heap_allocs.
  rt::Runtime audit(2);
  const rt::SlotId me = audit.register_thread();
  const EntryPointId ep = bind_null(audit);
  ppc::RegSet regs;
  for (int i = 0; i < 32; ++i) {
    ppc::set_op(regs, 1);
    audit.call_remote(me, 1, 1, ep, regs);  // warmup: worker + CD creation
  }
  const obs::CounterSnapshot warm = audit.snapshot();
  const std::uint64_t heap = heap_allocs_during([&] {
    for (int i = 0; i < 1000; ++i) {
      ppc::set_op(regs, 1);
      audit.call_remote(me, 1, 1, ep, regs);
    }
  });
  const obs::CounterSnapshot delta = audit.snapshot().delta(warm);
  std::printf("\nxcall warm-phase audit over 1000 cross-slot calls: "
              "heap_allocs=%llu xcall_ring_full=%llu "
              "locks_taken=%llu workers_created=%llu\n",
              static_cast<unsigned long long>(heap),
              static_cast<unsigned long long>(
                  delta.get(obs::Counter::kXcallRingFull)),
              static_cast<unsigned long long>(
                  delta.get(obs::Counter::kLocksTaken)),
              static_cast<unsigned long long>(
                  delta.get(obs::Counter::kWorkersCreated)));
  // Batched warm-phase audit: the same zero-alloc/zero-lock claim for the
  // vectored ring path. The ring path needs a live polling owner, whose
  // slot counters are plain stores — so both snapshots are taken while the
  // owner is PARKED at a phase barrier (its last poll happens-before the
  // idle ack this thread acquires), never while it runs.
  rt::Runtime baudit(2);
  const rt::SlotId bme = baudit.register_thread();
  const EntryPointId bep = bind_null(baudit);
  std::atomic<bool> b_stop{false};
  std::atomic<bool> b_up{false};
  std::atomic<bool> b_quiesce{false};
  std::atomic<bool> b_idle{false};
  std::atomic<bool> b_resumed{false};
  std::thread baudit_owner([&] {
    const rt::SlotId s = baudit.register_thread();
    b_up.store(true, std::memory_order_release);
    while (!b_stop.load(std::memory_order_acquire)) {
      if (b_quiesce.load(std::memory_order_acquire)) {
        while (baudit.poll(s) > 0) {
        }
        baudit.enter_idle(s);
        b_idle.store(true, std::memory_order_release);
        while (b_quiesce.load(std::memory_order_acquire) &&
               !b_stop.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        baudit.exit_idle(s);
        b_resumed.store(true, std::memory_order_release);
        continue;
      }
      if (baudit.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!b_up.load(std::memory_order_acquire)) std::this_thread::yield();
  std::vector<ppc::RegSet> bregs(kBatch);
  auto run_audit_batch = [&] {
    for (ppc::RegSet& r : bregs) ppc::set_op(r, 1);
    baudit.call_remote_batch(bme, 1, 1, bep,
                             std::span<ppc::RegSet>(bregs.data(), kBatch));
  };
  for (int i = 0; i < 64; ++i) run_audit_batch();  // warmup
  auto barrier_snapshot = [&] {
    b_idle.store(false, std::memory_order_relaxed);
    b_quiesce.store(true, std::memory_order_release);
    while (!b_idle.load(std::memory_order_acquire)) std::this_thread::yield();
    const obs::CounterSnapshot snap = baudit.snapshot();
    b_resumed.store(false, std::memory_order_relaxed);
    b_quiesce.store(false, std::memory_order_release);
    while (!b_resumed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return snap;
  };
  const obs::CounterSnapshot bwarm = barrier_snapshot();
  constexpr int kAuditBatches = 512;
  // The heap window spans the batches and the owner's concurrent polls.
  const std::uint64_t bheap = heap_allocs_during([&] {
    for (int i = 0; i < kAuditBatches; ++i) run_audit_batch();
  });
  const obs::CounterSnapshot bafter = barrier_snapshot();
  b_stop.store(true, std::memory_order_release);
  baudit_owner.join();
  const obs::CounterSnapshot bdelta = bafter.delta(bwarm);
  std::printf("batched warm-phase audit over %d batches of %d: "
              "batch_posts=%llu cells=%llu heap_allocs=%llu "
              "locks_taken=%llu ring_full=%llu\n",
              kAuditBatches, kBatch,
              static_cast<unsigned long long>(
                  bdelta.get(obs::Counter::kXcallBatchPosts)),
              static_cast<unsigned long long>(
                  bdelta.get(obs::Counter::kXcallCellsPerBatch)),
              static_cast<unsigned long long>(bheap),
              static_cast<unsigned long long>(
                  bdelta.get(obs::Counter::kLocksTaken)),
              static_cast<unsigned long long>(
                  bdelta.get(obs::Counter::kXcallRingFull)));

  // Frame warm-phase audit on the same single-threaded shape as the typed
  // one: 1000 warm frame calls touch no lock, no heap, and no
  // worker machinery — each books exactly one calls_frame. The arena
  // gauges ride along as scalars: every hot structure the calls used
  // (rings, histogram blocks, CD stacks, wait pools) came out of the
  // node-local arena, and placement verification found zero off-node
  // pages (on a hugepage-less container the chunks fall back to 4 K —
  // arena_hugepage_fallbacks records that, and the calls are oblivious).
  rt::Runtime faudit(2);
  const rt::SlotId fme = faudit.register_thread();
  const rt::FrameServiceId fsvc = bind_null_frame(faudit);
  rt::CallFrame ff = rt::make_frame(fsvc, 1);
  for (int i = 0; i < 32; ++i) faudit.call_remote_frame(fme, 1, 1, ff);
  const obs::CounterSnapshot fwarm = faudit.snapshot();
  const std::uint64_t fheap = heap_allocs_during([&] {
    for (int i = 0; i < 1000; ++i) faudit.call_remote_frame(fme, 1, 1, ff);
  });
  const obs::CounterSnapshot fdelta = faudit.snapshot().delta(fwarm);
  const mem::ArenaStats astats = faudit.arena_stats();
  std::printf("frame warm-phase audit over 1000 cross-slot frame calls: "
              "calls_frame=%llu locks_taken=%llu heap_allocs=%llu "
              "workers_created=%llu | arena: reserved=%llu B hugepages=%llu "
              "fallbacks=%llu node_mismatch=%llu\n",
              static_cast<unsigned long long>(
                  fdelta.get(obs::Counter::kCallsFrame)),
              static_cast<unsigned long long>(
                  fdelta.get(obs::Counter::kLocksTaken)),
              static_cast<unsigned long long>(fheap),
              static_cast<unsigned long long>(
                  fdelta.get(obs::Counter::kWorkersCreated)),
              static_cast<unsigned long long>(astats.bytes_reserved),
              static_cast<unsigned long long>(astats.hugepages),
              static_cast<unsigned long long>(astats.hugepage_fallbacks),
              static_cast<unsigned long long>(astats.node_mismatches));

  std::printf("speedup vs msg queue: direct %.1fx, served %.1fx, "
              "ring/polling %.1fx\n",
              msgq_mean / direct_mean, msgq_mean / served_mean,
              msgq_mean / polling_mean);
  std::printf("batched amortization: b16 %.1fx, b64 %.1fx cheaper per call "
              "than b1; 16-caller throughput %.2fx 1-caller\n",
              batched_mean_b1 / batched_mean_b16,
              batched_mean_b1 / batched_mean_b64,
              tput_rate_16 / tput_rate_1);

  obs::BenchReport report("xcall_latency");
  report.meta("unit", "ns_per_call");
  report.meta("batch", static_cast<double>(kBatch));
  report.meta("batches", static_cast<double>(kMeasuredBatches));
  report.meta("warmup_iters", static_cast<double>(kWarmupIters));
  report.meta("warmup_batches", static_cast<double>(kWarmupBatches));
  report.meta("throughput_think_time_us", 50.0);
  report.meta("throughput_burst_calls", 16.0);
  for (const NamedDist& d : dists) report.series(d.name, d.dist);
  report.scalar("speedup_vs_msgq_direct", msgq_mean / direct_mean);
  report.scalar("speedup_vs_msgq_served", msgq_mean / served_mean);
  report.scalar("speedup_vs_msgq_polling", msgq_mean / polling_mean);
  report.scalar("batched_speedup_b16", batched_mean_b1 / batched_mean_b16);
  report.scalar("batched_speedup_b64", batched_mean_b1 / batched_mean_b64);
  report.scalar("throughput_scaling_16v1", tput_rate_16 / tput_rate_1);
  // Frame ABI vs the typed path, same run. The direct ratio is the median
  // of kSpeedupRounds alternating rounds (CI gates it at >= 1.5); the
  // single-series ratio stays alongside for reference.
  report.meta("frame_speedup_rounds", static_cast<double>(kSpeedupRounds));
  report.scalar("frame_abi_speedup_direct", frame_speedup_direct);
  report.scalar("frame_abi_speedup_direct_series",
                direct_mean / frame_direct_mean);
  report.scalar("frame_abi_speedup_b16",
                batched_mean_b16 / frame_batched_mean_b16);
  report.scalar("frame_abi_speedup_b64",
                batched_mean_b64 / frame_batched_mean_b64);
  // Arena gauges at audit end (absolute values, not deltas).
  report.scalar("arena_bytes_reserved",
                static_cast<double>(astats.bytes_reserved));
  report.scalar("arena_hugepages", static_cast<double>(astats.hugepages));
  report.scalar("arena_hugepage_fallbacks",
                static_cast<double>(astats.hugepage_fallbacks));
  report.scalar("arena_node_mismatch",
                static_cast<double>(astats.node_mismatches));
  for (const ThroughputRow& r : tput) {
    report.row("throughput_vs_callers")
        .cell("callers", r.callers)
        .cell("calls_per_sec", r.calls_per_sec);
  }
  for (const ThroughputRow& r : tput_single) {
    report.row("throughput_single_vs_callers")
        .cell("callers", r.callers)
        .cell("calls_per_sec", r.calls_per_sec);
  }
  report.counters("xcall_warm_phase", delta, heap);
  report.counters("xcall_batch_warm_phase", bdelta, bheap);
  report.counters("frame_warm_phase", fdelta, fheap);
  if (!report.write()) return 1;
  return 0;
}
