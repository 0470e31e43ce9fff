// End-to-end request context: the per-request ambient state that rides a
// call tree across slot boundaries.
//
// The paper's death-and-destruction semantics (§4.5) stop at one PPC
// boundary: a hard-killed server aborts ITS in-flight calls, but nothing
// connects the caller's fate to work the server started on the caller's
// behalf. The host runtime makes nested calls routinely — KvService's
// vectored stubs ride xcall rings which ride the ppc facility — so a
// caller whose deadline already expired used to keep burning server
// cycles at every hop past the first. RequestCtx closes that gap:
//
//   abs_deadline_cycles  the root request's absolute budget (host_cycles
//                        tick; 0 = none). Nested calls inherit it under a
//                        remaining-budget clamp — a callee may tighten the
//                        budget with its own CallOptions::deadline_cycles
//                        but can never extend the root's. Checked at
//                        admission (caller side) and again at drain
//                        (server side), so an expired tree stops at the
//                        next seam instead of executing late.
//   cancel_token         index into the runtime's cancel-flag pool
//                        (0 = not cancellable). Runtime::cancel(token)
//                        raises the flag; every seam that checks the
//                        deadline checks the flag too, completing with
//                        kCallAborted. Long handlers poll cooperatively
//                        via RtCtx::cancellation_requested().
//   traffic_class        kInteractive or kBulk. Admission control keeps a
//                        watermark per class (bulk sheds first) and the
//                        drain serves rings whose head cell is
//                        interactive before those whose head is bulk.
//
// Unlike obs::TraceCtx — which exists everywhere but only *records* under
// HPPC_TRACE — RequestCtx is load-bearing semantics in every build: the
// deadline/cancel checks decide call outcomes. The struct is installed as
// `Slot::cur_req` with the same save/restore discipline the trace context
// uses, so the no-context warm path costs one 16-byte copy and two
// always-false compares per call.
#pragma once

#include <cstdint>

namespace hppc::rt {

/// Admission/drain priority of a request. kInteractive is the default and
/// the latency-sensitive class; kBulk marks throughput traffic that should
/// absorb shedding and queueing first when the system saturates.
enum class TrafficClass : std::uint8_t {
  kInteractive = 0,
  kBulk = 1,
};

inline constexpr std::size_t kNumTrafficClasses = 2;

/// Cancel-flag pool handle. 0 means "not cancellable"; nonzero tokens come
/// from Runtime::cancel_token_create() and index (mod pool size) into the
/// runtime's flag array. Tokens are generation-free: the pool is sized so
/// reuse requires 2^14 intervening allocations, and a stale cancel on a
/// recycled index is benign (the new request observes a spurious
/// kCallAborted — the same contract as a lost admission race).
using CancelToken = std::uint32_t;

struct RequestCtx {
  std::uint64_t abs_deadline_cycles = 0;  // absolute host_cycles tick; 0=none
  CancelToken cancel_token = 0;           // 0 = not cancellable
  TrafficClass traffic_class = TrafficClass::kInteractive;
  // Named tail padding: a slot saves and restores this struct around
  // every handler it runs for another slot; 16 named bytes copy as one
  // move instead of two overlapping ones.
  std::uint8_t reserved[3] = {};

  /// Anything to propagate? (The warm no-context path keeps this false.)
  bool active() const {
    return abs_deadline_cycles != 0 || cancel_token != 0 ||
           traffic_class != TrafficClass::kInteractive;
  }

  bool bulk() const { return traffic_class == TrafficClass::kBulk; }

  bool expired(std::uint64_t now) const {
    return abs_deadline_cycles != 0 && now >= abs_deadline_cycles;
  }

  /// The inheritance rule: a nested bound may tighten the ambient one but
  /// never extend it. 0 on either side means "no bound from that side".
  static std::uint64_t clamp_deadline(std::uint64_t inherited,
                                      std::uint64_t mine) {
    if (mine == 0) return inherited;
    if (inherited == 0) return mine;
    return mine < inherited ? mine : inherited;
  }
};

}  // namespace hppc::rt
