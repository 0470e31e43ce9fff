// The PPC pattern as a host library: per-thread-slot pools, handler runs on
// the calling thread, one atomic load on the fast path. Compare against a
// global-mutex pool and a classic message-queue server.
//
//   $ ./examples/rt_inprocess
#include <chrono>
#include <cstdio>

#include "rt/global_pool.h"
#include "rt/msgq.h"
#include "rt/runtime.h"

using namespace hppc;
using Clock = std::chrono::steady_clock;

namespace {

double ns_per_call(std::uint64_t calls, Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count() /
         static_cast<double>(calls);
}

}  // namespace

int main() {
  constexpr std::uint64_t kCalls = 400000;

  // --- the PPC-pattern runtime ---
  rt::Runtime ppc_rt(2);
  const rt::SlotId slot = ppc_rt.register_thread();
  const EntryPointId svc = ppc_rt.bind(
      {.name = "counter"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
        regs[1] = regs[0] + 1;
        ppc::set_rc(regs, Status::kOk);
      });

  ppc::RegSet regs;
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    regs[0] = static_cast<Word>(i);
    ppc::set_op(regs, 1);
    ppc_rt.call(slot, 1, svc, regs);
  }
  const double rt_ns = ns_per_call(kCalls, Clock::now() - t0);

  // --- global locked pool (LRPC-ish) ---
  rt::GlobalPoolRuntime global;
  const EntryPointId gsvc = global.bind([](ProgramId, ppc::RegSet& r) {
    r[1] = r[0] + 1;
    ppc::set_rc(r, Status::kOk);
  });
  t0 = Clock::now();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    regs[0] = static_cast<Word>(i);
    ppc::set_op(regs, 1);
    global.call(1, gsvc, regs);
  }
  const double global_ns = ns_per_call(kCalls, Clock::now() - t0);

  // --- message-queue server (cross-thread round trip) ---
  rt::MsgQueueServer msgq(1, [](ppc::RegSet& r) {
    r[1] = r[0] + 1;
    ppc::set_rc(r, Status::kOk);
  });
  constexpr std::uint64_t kMsgCalls = 20000;  // two context switches each
  t0 = Clock::now();
  for (std::uint64_t i = 0; i < kMsgCalls; ++i) {
    regs[0] = static_cast<Word>(i);
    ppc::set_op(regs, 1);
    msgq.call(regs);
  }
  const double msgq_ns = ns_per_call(kMsgCalls, Clock::now() - t0);

  std::printf("in-process IPC, one thread, ns/call:\n");
  std::printf("  PPC pattern (per-slot pools):   %8.1f\n", rt_ns);
  std::printf("  global mutex pool (LRPC-ish):   %8.1f\n", global_ns);
  std::printf("  message queue (thread handoff): %8.1f\n", msgq_ns);
  const obs::SlotCounters& c = ppc_rt.counters(slot);
  std::printf("\nper-slot stats: calls=%llu workers=%llu cds=%llu\n",
              static_cast<unsigned long long>(c.get(obs::Counter::kCallsSync)),
              static_cast<unsigned long long>(
                  c.get(obs::Counter::kWorkersCreated)),
              static_cast<unsigned long long>(c.get(obs::Counter::kCdsCreated)));
  return 0;
}
