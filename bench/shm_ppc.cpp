// Cross-PROCESS PPC latency and bulk bandwidth: the shm transport's warm
// null-call round trip — threaded (same address space, two threads) and
// forked (two processes, the deployment shape) — against the in-process
// ring path it mirrors, plus the CopyServer bulk path (4 K / 64 K / 1 M
// granted-region transfers) against a pipe baseline. The acceptance
// scalars:
//
//   shm_vs_inproc_rtt        cross-process RTT p50 over in-process ring
//                            RTT p50 (medians, so one preempted batch
//                            cannot move it) — the gate requires <= 3x: on a multi-core
//                            host both spin on a polling server on
//                            another core and pay the same cache-line
//                            round trips, so the shm protocol itself must
//                            add at most protocol noise;
//   bulk_1m_speedup_vs_pipe  1 MiB granted-region DELIVERY bandwidth over
//                            the same payload through a pipe — gate >= 5x.
//                            Delivery = the receiver holds an addressable
//                            mapping of the whole payload. The grant gets
//                            there with a 16-byte descriptor in one cell;
//                            the pipe can only get there by copying every
//                            byte twice through the kernel's 64 KiB pipe
//                            buffer. In-place-read and CopyServer-staged
//                            consumption rates ride alongside in the
//                            bulk_bandwidth table (the copy path is also
//                            a scalar, bulk_1m_copy_speedup_vs_pipe);
//   bulk_cells_per_call      ring cells drained per bulk call — exactly 1
//                            at every payload size: descriptors ride the
//                            cell, payloads never do (O(1) cell traffic);
//
// and the shm_warm_phase counter blocks are the zero-alloc/zero-lock
// evidence: 1000 warm calls book 1000 calls_remote, 1000 drained cells,
// and nothing else — no locks_taken, no pool growth, and heap_allocs (the
// process's operator new calls over the window, common/heap_audit.h) 0.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/heap_audit.h"
#include "common/stats.h"
#include "obs/bench_metrics.h"
#include "obs/counters.h"
#include "ppc/regs.h"
#include "rt/bulk_desc.h"
#include "rt/runtime.h"
#include "shm/transport.h"

#ifdef __linux__
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace hppc;

#ifdef __linux__

namespace {

constexpr int kWarmupIters = 2'000;
constexpr int kMeasuredBatches = 1'000;
constexpr int kBatch = 8;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

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

std::string uniq_name(const char* tag) {
  return std::string("/hppc_bench_") + tag + "_" + std::to_string(::getpid());
}

Status null_handler(void*, shm::ShmCtx&, ppc::RegSet&) { return Status::kOk; }

// Bulk sink: one BulkSeg descriptor at w[0..3]; pull the payload out of
// the granted region into a server-local stage. The payload crosses as
// one grant-checked memcpy — the cell carries 16 descriptor bytes.
struct BulkSink {
  std::vector<std::byte> stage = std::vector<std::byte>(1u << 20);
  static Status run(void* self, shm::ShmCtx& ctx, ppc::RegSet& regs) {
    auto* s = static_cast<BulkSink*>(self);
    const rt::BulkSeg seg = rt::bulk_seg_unpack(regs, 0);
    return ctx.copy->copy_from(seg.region, seg.addr, s->stage.data(), seg.len);
  }
};

/// Consume a payload without reading it through the pipe's lens: sum the
/// granted bytes IN PLACE (one grant-checked resolve, one read pass, no
/// copy at all — the region is already mapped in the server). This is
/// what the granted-region design buys over any message-passing channel:
/// a pipe cannot deliver a byte without copying it twice; here delivery
/// is the descriptor and the payload never moves. The checksum lands in
/// the reply so the pass cannot be optimized away.
Status bulk_consume_in_place(void*, shm::ShmCtx& ctx, ppc::RegSet& regs) {
  const rt::BulkSeg seg = rt::bulk_seg_unpack(regs, 0);
  const auto* p = static_cast<const std::byte*>(
      ctx.copy->resolve(seg.region, seg.addr, seg.len, /*writable=*/false));
  if (p == nullptr) return Status::kBadRegion;
  // Four accumulators so the pass runs at memory bandwidth, not at the
  // latency of one serial add chain.
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0, w = 0;
  std::size_t i = 0;
  for (; i + 32 <= seg.len; i += 32) {
    std::memcpy(&w, p + i, 8);
    s0 += w;
    std::memcpy(&w, p + i + 8, 8);
    s1 += w;
    std::memcpy(&w, p + i + 16, 8);
    s2 += w;
    std::memcpy(&w, p + i + 24, 8);
    s3 += w;
  }
  std::uint64_t sum = s0 + s1 + s2 + s3;
  for (; i < seg.len; ++i) sum += static_cast<std::uint64_t>(p[i]);
  ppc::set_u64(regs, 0, sum);
  return Status::kOk;
}

/// Delivery only: validate the grant and touch the first byte. After this
/// returns, the server holds an addressable mapping of the whole payload —
/// the same end state the pipe's receiver reaches, except the pipe can
/// only get there by copying every byte twice (user -> kernel buffer ->
/// user). This is the transport cost itself, with no consumer workload
/// mixed in, and it is what `bulk_1m_speedup_vs_pipe` gates.
Status bulk_deliver(void*, shm::ShmCtx& ctx, ppc::RegSet& regs) {
  const rt::BulkSeg seg = rt::bulk_seg_unpack(regs, 0);
  const auto* p = static_cast<const std::byte*>(
      ctx.copy->resolve(seg.region, seg.addr, seg.len, /*writable=*/false));
  if (p == nullptr) return Status::kBadRegion;
  regs[0] = static_cast<std::uint32_t>(p[0]);
  return Status::kOk;
}

/// Fork a server process: create the transport, bind the four endpoints,
/// serve until the segment's stop flag. Returns the child pid.
pid_t spawn_server(const std::string& name) {
  const pid_t child = ::fork();
  if (child != 0) return child;
  {
    shm::Server server(name);
    BulkSink sink;
    server.bind(&null_handler, nullptr);           // ep 1
    server.bind(&BulkSink::run, &sink);            // ep 2: staged copy
    server.bind(&bulk_consume_in_place, nullptr);  // ep 3: in-place read
    server.bind(&bulk_deliver, nullptr);           // ep 4: delivery only
    server.serve(/*dead_after_ns=*/2'000'000'000ull);
  }
  ::_exit(0);
}

/// Block until another process has published the transport segment.
void wait_for_transport(const std::string& name) {
  for (;;) {
    try {
      shm::Segment s = shm::Segment::open(name);
      const auto* hdr = reinterpret_cast<const shm::ShmHeader*>(s.base());
      if (hdr->magic.load(std::memory_order_acquire) == shm::kShmMagic) return;
    } catch (const std::exception&) {
    }
    ::usleep(1000);
  }
}

/// Spin until the null ep (ep 1) answers kOk — covers the window between
/// segment publication and the server's bind.
void warm_null_ep(shm::Peer& peer) {
  ppc::RegSet regs;
  while (peer.call(1, regs) != Status::kOk) ::usleep(1000);
}

}  // namespace

int main() {
  std::vector<NamedDist> dists;
  dists.reserve(8);
  auto bench = [&](const std::string& name, const std::function<void()>& op) {
    dists.push_back(NamedDist{name, {}});
    Percentiles& d = dists.back().dist;
    measure(d, op);
    std::printf("%-24s mean %8.1f ns  p50 %8.1f  p99 %8.1f\n", name.c_str(),
                d.mean(), d.median(), d.p99());
    return d.median();  // the headline ratios are p50 over p50
  };

  std::printf("cross-process PPC round trip and bulk bandwidth\n");
  std::printf("===============================================\n");

  // 1. In-process reference: the xcall ring against a busy-polling owner
  // thread — the lane the shm transport mirrors cell-for-cell.
  double inproc_p50 = 0;
  {
    rt::Runtime rt_(2);
    const rt::SlotId me = rt_.register_thread();
    const EntryPointId ep =
        rt_.bind({.name = "null"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
          ppc::set_rc(regs, Status::kOk);
        });
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
    ppc::RegSet regs;
    inproc_p50 = bench("inproc_ring_rtt", [&] {
      ppc::set_op(regs, 1);
      rt_.call_remote(me, 1, 1, ep, regs);
    });
    stop.store(true, std::memory_order_release);
    owner.join();
  }

  // 2. The shm lane, threaded: same protocol, same address space. The gap
  // between this row and (1) is pure protocol cost (wait-block pop, cell
  // CAS+publish, done-word spin vs the runtime's ring machinery).
  double shm_threaded_p50 = 0;
  obs::CounterSnapshot warm_peer, warm_srv;
  std::uint64_t warm_heap = 0;
  {
    const std::string name = uniq_name("thr");
    shm::Server server(name);
    server.bind(&null_handler, nullptr);
    std::atomic<bool> done{false};
    std::thread srv([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (server.poll() == 0) std::this_thread::yield();
      }
    });
    shm::Peer peer(name, 1);
    ppc::RegSet regs;
    shm_threaded_p50 = bench("shm_rtt_threaded", [&] { peer.call(1, regs); });

    // Warm-phase audit: 1000 calls after the measured run book exactly
    // 1000 calls_remote / 1000 drained cells — and zero of everything
    // else (no locks, no allocations, no pool traffic on either side).
    const obs::CounterSnapshot p0 = peer.counters().snapshot();
    const obs::CounterSnapshot s0 = server.counters().snapshot();
    // Both sides run in this process: one heap window covers peer and
    // server alike.
    warm_heap = heap_allocs_during([&] {
      for (int i = 0; i < 1000; ++i) peer.call(1, regs);
    });
    warm_peer = peer.counters().snapshot().delta(p0);
    warm_srv = server.counters().snapshot().delta(s0);
    std::printf("shm warm-phase audit over 1000 calls: calls_remote=%llu "
                "cells_drained=%llu locks_taken=%llu heap_allocs=%llu\n",
                static_cast<unsigned long long>(
                    warm_peer.get(obs::Counter::kCallsRemote)),
                static_cast<unsigned long long>(
                    warm_srv.get(obs::Counter::kXcallCellsDrained)),
                static_cast<unsigned long long>(
                    warm_peer.get(obs::Counter::kLocksTaken) +
                    warm_srv.get(obs::Counter::kLocksTaken)),
                static_cast<unsigned long long>(warm_heap));
    done.store(true, std::memory_order_release);
    srv.join();
  }

  // 3. The shm lane, forked: caller and server in different processes —
  // the tentpole configuration. The server polls on its own core, so a
  // round trip pays the same cross-core line transfers as (1), plus the
  // shm protocol's own; the gate holds this within 3x.
  double shm_cross_p50 = 0;
  {
    const std::string name = uniq_name("xproc");
    const pid_t child = spawn_server(name);
    wait_for_transport(name);
    {
      shm::Peer peer(name, /*program=*/1);
      warm_null_ep(peer);
      ppc::RegSet regs;
      shm_cross_p50 =
          bench("shm_rtt_cross_process", [&] { peer.call(1, regs); });
      peer.request_stop();
    }
    int st = 0;
    ::waitpid(child, &st, 0);
  }

  // 4. Bulk bandwidth, forked: parent writes the payload into a granted
  // region, one descriptor-carrying call delivers it. Three server-side
  // modes, in descending zero-copy purity: ep 4 DELIVERS (grant-checked
  // resolve, payload addressable, nothing copied — the transport cost,
  // and the gated comparison), ep 3 additionally reads every byte in
  // place (a real consumer workload, still zero copies), ep 2 pulls the
  // payload through CopyServer::copy_from into a stage (one grant-checked
  // memcpy — the CopyTo/CopyFrom engine). The pipe baseline delivers the
  // same payload into the receiver's buffer — the cheapest a pipe can
  // do it, which is already two copies (user -> pipe buffer -> user) in
  // 64 KiB slices. Cell-traffic audit for the O(1) claim runs threaded
  // below.
  struct BulkRow {
    std::size_t bytes;
    double deliver_mbps;  // ep 4: descriptor handoff only
    double inplace_mbps;  // ep 3: full read pass, in place
    double copy_mbps;     // ep 2: staged CopyServer pull
    double pipe_mbps;
  };
  std::vector<BulkRow> bulk;
  const std::size_t kSizes[] = {4096, 64 * 1024, 1u << 20};
  const int kIters[] = {2000, 500, 96};
  {
    const std::string name = uniq_name("bulk");
    const pid_t child = spawn_server(name);
    wait_for_transport(name);
    {
      shm::Peer peer(name, /*program=*/1);
      warm_null_ep(peer);
      const std::uint32_t region = peer.grant_region(1u << 20);
      std::byte* base = peer.region_base(region);
      for (int s = 0; s < 3; ++s) {
        const std::size_t bytes = kSizes[s];
        const int iters = kIters[s];
        ppc::RegSet regs;
        const auto seg =
            rt::bulk_region(region, 0, static_cast<std::uint32_t>(bytes));
        std::memset(base, 0x2A, bytes);
        double mbps[3] = {0, 0, 0};  // [ep - 2]
        for (const shm::ShmEp ep : {shm::ShmEp{4}, shm::ShmEp{3},
                                    shm::ShmEp{2}}) {
          rt::bulk_seg_pack(regs, 0, seg);
          peer.call(ep, regs);  // warm the server's region mapping
          const double t0 = now_ns();
          for (int i = 0; i < iters; ++i) {
            // The producer really writes each round.
            base[i % bytes] = static_cast<std::byte>(i);
            rt::bulk_seg_pack(regs, 0, seg);
            if (peer.call(ep, regs) != Status::kOk) return 1;
          }
          mbps[ep - 2] = static_cast<double>(bytes) * iters /
                         ((now_ns() - t0) / 1e9) / 1e6;
        }
        bulk.push_back({bytes, mbps[2], mbps[1], mbps[0], 0.0});
      }
      peer.request_stop();
    }
    int st = 0;
    ::waitpid(child, &st, 0);
  }
  // The pipe baseline: same payload, delivered into the receiver's
  // buffer, ack-per-message discipline.
  {
    int data[2], ack[2];
    if (::pipe(data) != 0 || ::pipe(ack) != 0) return 1;
    const pid_t child = ::fork();
    if (child == 0) {
      ::close(data[1]);
      ::close(ack[0]);
      std::vector<std::byte> buf(1u << 20);
      for (int s = 0; s < 3; ++s) {
        for (int i = 0; i < kIters[s] + 1; ++i) {  // +1 warm round
          std::size_t got = 0;
          while (got < kSizes[s]) {
            const ssize_t n =
                ::read(data[0], buf.data() + got, kSizes[s] - got);
            if (n <= 0) ::_exit(2);
            got += static_cast<std::size_t>(n);
          }
          // The first byte rides the ack, as in the shm delivery ep.
          std::uint32_t ok = static_cast<std::uint32_t>(buf[0]) | 1u;
          if (::write(ack[1], &ok, 4) != 4) ::_exit(3);
        }
      }
      ::_exit(0);
    }
    ::close(data[0]);
    ::close(ack[1]);
    std::vector<std::byte> payload(1u << 20, std::byte{0x2A});
    for (int s = 0; s < 3; ++s) {
      const std::size_t bytes = kSizes[s];
      const int iters = kIters[s];
      auto send_one = [&] {
        std::size_t put = 0;
        while (put < bytes) {
          const ssize_t n = ::write(data[1], payload.data() + put, bytes - put);
          if (n <= 0) ::_exit(4);
          put += static_cast<std::size_t>(n);
        }
        std::uint32_t ok = 0;
        if (::read(ack[0], &ok, 4) != 4) ::_exit(5);
      };
      send_one();  // warm round
      const double t0 = now_ns();
      for (int i = 0; i < iters; ++i) {
        payload[i % bytes] = static_cast<std::byte>(i);
        send_one();
      }
      bulk[static_cast<std::size_t>(s)].pipe_mbps =
          static_cast<double>(bytes) * iters / ((now_ns() - t0) / 1e9) / 1e6;
    }
    ::close(data[1]);
    ::close(ack[0]);
    int st = 0;
    ::waitpid(child, &st, 0);
  }
  for (const BulkRow& r : bulk) {
    std::printf("bulk %7zu B: deliver %9.1f MB/s  in-place %8.1f MB/s  "
                "copy %8.1f MB/s  pipe %8.1f MB/s  (%.1fx deliver/pipe)\n",
                r.bytes, r.deliver_mbps, r.inplace_mbps, r.copy_mbps,
                r.pipe_mbps, r.deliver_mbps / r.pipe_mbps);
  }

  // 5. O(1) cell traffic, threaded so both counter blocks are readable:
  // 64 bulk calls of 1 MiB drain exactly 64 cells — the payload moved
  // 64 MiB while the ring moved 4 KiB of cells.
  double bulk_cells_per_call = 0;
  {
    const std::string name = uniq_name("cells");
    shm::Server server(name);
    BulkSink sink;
    server.bind(&null_handler, nullptr);
    const shm::ShmEp bulk_ep = server.bind(&BulkSink::run, &sink);
    std::atomic<bool> done{false};
    std::thread srv([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (server.poll() == 0) std::this_thread::yield();
      }
    });
    shm::Peer peer(name, 1);
    const std::uint32_t region = peer.grant_region(1u << 20);
    std::memset(peer.region_base(region), 0x11, 1u << 20);
    ppc::RegSet regs;
    rt::bulk_seg_pack(regs, 0, rt::bulk_region(region, 0, 1u << 20));
    peer.call(bulk_ep, regs);  // map the grant before snapshotting
    const obs::CounterSnapshot s0 = server.counters().snapshot();
    constexpr int kBulkCalls = 64;
    for (int i = 0; i < kBulkCalls; ++i) {
      if (peer.call(bulk_ep, regs) != Status::kOk) return 1;
    }
    const obs::CounterSnapshot d = server.counters().snapshot().delta(s0);
    bulk_cells_per_call =
        static_cast<double>(d.get(obs::Counter::kXcallCellsDrained)) /
        kBulkCalls;
    std::printf("bulk cell audit: %d x 1 MiB moved %llu bytes over %llu "
                "cells (%.2f cells/call)\n",
                kBulkCalls,
                static_cast<unsigned long long>(
                    d.get(obs::Counter::kBulkCopyBytes)),
                static_cast<unsigned long long>(
                    d.get(obs::Counter::kXcallCellsDrained)),
                bulk_cells_per_call);
    done.store(true, std::memory_order_release);
    srv.join();
  }

  const double vs_inproc = shm_cross_p50 / inproc_p50;
  const double bulk_1m = bulk[2].deliver_mbps / bulk[2].pipe_mbps;
  const double bulk_1m_copy = bulk[2].copy_mbps / bulk[2].pipe_mbps;
  std::printf("\nshm cross-process RTT %.2fx in-process ring; 1 MiB bulk "
              "%.1fx pipe bandwidth\n",
              vs_inproc, bulk_1m);

  obs::BenchReport report("shm_ppc");
  report.meta("unit", "ns_per_call");
  report.meta("batch", static_cast<double>(kBatch));
  report.meta("batches", static_cast<double>(kMeasuredBatches));
  report.meta("warmup_iters", static_cast<double>(kWarmupIters));
  for (const NamedDist& d : dists) report.series(d.name, d.dist);
  report.scalar("shm_vs_inproc_rtt", vs_inproc);
  report.scalar("shm_threaded_vs_inproc_rtt", shm_threaded_p50 / inproc_p50);
  report.scalar("bulk_1m_speedup_vs_pipe", bulk_1m);
  report.scalar("bulk_1m_copy_speedup_vs_pipe", bulk_1m_copy);
  report.scalar("bulk_cells_per_call", bulk_cells_per_call);
  for (const BulkRow& r : bulk) {
    report.row("bulk_bandwidth")
        .cell("bytes", static_cast<double>(r.bytes))
        .cell("shm_deliver_mbps", r.deliver_mbps)
        .cell("shm_inplace_mbps", r.inplace_mbps)
        .cell("shm_copy_mbps", r.copy_mbps)
        .cell("pipe_mbps", r.pipe_mbps)
        .cell("speedup", r.deliver_mbps / r.pipe_mbps);
  }
  report.counters("shm_warm_phase_peer", warm_peer, warm_heap);
  report.counters("shm_warm_phase_server", warm_srv, warm_heap);
  if (!report.write()) return 1;
  return 0;
}

#else  // !__linux__

int main() {
  std::printf("shm_ppc: POSIX shm transport is Linux-only; nothing to do\n");
  return 0;
}

#endif
