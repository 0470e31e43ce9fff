// Per-slot bounded ring-buffer event tracer, ftrace-style: fixed-size
// 32-byte records (timestamp, trace/span/parent ids, slot, event id, arg)
// written with plain stores into a ring owned by one slot/CPU. The ring
// never grows, never locks, and overwrites its oldest record when full, so
// tracing cannot change the allocation or sharing behaviour of the path
// being traced — a saturated tracer degrades by losing old records, never
// by blocking the call path.
//
// Request-scoped tracing rides the same rings: a TraceCtx (64-bit trace id
// + current span id + hop count) travels with a call across slots — stashed
// in the xcall cell's trace-build padding (async cells included),
// restored around nested handler execution — and kSpanBegin/kSpanEnd
// records parent-link each hop, so one exported chrome-trace shows a call
// crossing caller slot -> ring -> server slot -> nested hops.
//
// Compile-time toggle: hooks are emitted only when the build defines
// HPPC_TRACE=1 (cmake -DHPPC_TRACE=ON). With the toggle off the
// HPPC_TRACE_EVENT macro expands to nothing — zero instructions on the
// fast path, which is what the overhead bench asserts.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.h"  // obs_name_eq, for the exhaustiveness checks

namespace hppc::obs {

/// The request context carried end-to-end through a traced call chain.
/// `trace_id == 0` means "not traced" everywhere — untraced calls pay no
/// span bookkeeping even in trace builds. The struct exists in every build
/// (so call paths can thread it unconditionally); only trace builds ever
/// emit records or ship it across the xcall rings.
struct TraceCtx {
  std::uint64_t trace_id = 0;  // 0 = untraced
  std::uint32_t span_id = 0;   // the current (parent-to-be) span
  std::uint32_t hop = 0;       // slot/ring crossings so far

  bool traced() const { return trace_id != 0; }
};

/// What a span covers — carried in a kSpanBegin record's `arg`.
enum class SpanKind : std::uint32_t {
  kRoot = 0,       // client-side root (Runtime::trace_begin)
  kLocalCall,      // same-slot synchronous call (incl. nested RtCtx::call)
  kRemoteCall,     // cross-slot call_remote, ring path (post -> completion)
  kRemoteDirect,   // cross-slot call direct-executed under a gate steal
  kBatch,          // one call_remote_batch chunk (post -> all collected)
  kServerExec,     // server-side execution of one ring cell
  kAsyncExec,      // retired in rt: async cells run as kServerExec
  kCount
};

constexpr const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kRoot: return "root";
    case SpanKind::kLocalCall: return "local_call";
    case SpanKind::kRemoteCall: return "remote_call";
    case SpanKind::kRemoteDirect: return "remote_direct";
    case SpanKind::kBatch: return "batch";
    case SpanKind::kServerExec: return "server_exec";
    case SpanKind::kAsyncExec: return "async_exec";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

/// Fixed event ids. Append only — they appear in exported traces.
enum class TraceEvent : std::uint16_t {
  kCallEnter = 0,     // arg = entry point id
  kCallExit,          // arg = status code
  kAsyncEnqueue,      // arg = entry point id
  kPoll,              // arg = actions performed
  kWorkerCreate,      // arg = entry point id (pool grow)
  kWorkerInit,        // arg = entry point id (§4.5.3 one-time init)
  kFrankWorkerRefill, // arg = entry point id
  kFrankCdRefill,     // arg = CD pool group
  kBind,              // arg = new entry point id
  kSoftKill,          // arg = entry point id
  kHardKill,          // arg = entry point id
  kReclaim,           // arg = entry point id (cross-slot reclamation)
  kUpcall,            // arg = entry point id
  kInterrupt,         // arg = entry point id
  kRemoteCall,        // arg = target cpu
  kGatewayForward,    // arg = legacy server pid
  kXcallPost,         // arg = target slot (caller-side ring publish)
  kXcallBatch,        // arg = cells drained in the batch (target-side)
  kReplPublish,       // arg = replicated object id (writer-side propagate)
  kReplPull,          // arg = replicated object id (owner refreshed replica)
  kFaultInject,       // arg = site-local tag (fault injection fired)
  kDeadlineExceeded,  // arg = target slot (caller abandoned the wait)
  kCallShed,          // arg = target slot (admission control rejected)
  kXcallBatchPost,    // arg = cells published by one vectored submission
  kWaiterPark,        // arg = target slot (caller parked on its wait word)
  kWaiterKick,        // arg = entry point (completion woke a parked waiter)
  kSpanBegin,         // arg = SpanKind; trace/span/parent ids carried
  kSpanEnd,           // arg = status code; trace/span ids carried
  kReplHit,           // arg = replicated object id (read served by replica)
  kCallCancelled,     // arg = target slot/ep (cancel token fired on the call)
  kCount
};

constexpr const char* trace_event_name(TraceEvent e) {
  switch (e) {
    case TraceEvent::kCallEnter: return "call_enter";
    case TraceEvent::kCallExit: return "call_exit";
    case TraceEvent::kAsyncEnqueue: return "async_enqueue";
    case TraceEvent::kPoll: return "poll";
    case TraceEvent::kWorkerCreate: return "worker_create";
    case TraceEvent::kWorkerInit: return "worker_init";
    case TraceEvent::kFrankWorkerRefill: return "frank_worker_refill";
    case TraceEvent::kFrankCdRefill: return "frank_cd_refill";
    case TraceEvent::kBind: return "bind";
    case TraceEvent::kSoftKill: return "soft_kill";
    case TraceEvent::kHardKill: return "hard_kill";
    case TraceEvent::kReclaim: return "reclaim";
    case TraceEvent::kUpcall: return "upcall";
    case TraceEvent::kInterrupt: return "interrupt";
    case TraceEvent::kRemoteCall: return "remote_call";
    case TraceEvent::kGatewayForward: return "gateway_forward";
    case TraceEvent::kXcallPost: return "xcall_post";
    case TraceEvent::kXcallBatch: return "xcall_batch";
    case TraceEvent::kReplPublish: return "repl_publish";
    case TraceEvent::kReplPull: return "repl_pull";
    case TraceEvent::kFaultInject: return "fault_inject";
    case TraceEvent::kDeadlineExceeded: return "deadline_exceeded";
    case TraceEvent::kCallShed: return "call_shed";
    case TraceEvent::kXcallBatchPost: return "xcall_batch_post";
    case TraceEvent::kWaiterPark: return "waiter_park";
    case TraceEvent::kWaiterKick: return "waiter_kick";
    case TraceEvent::kSpanBegin: return "span_begin";
    case TraceEvent::kSpanEnd: return "span_end";
    case TraceEvent::kReplHit: return "repl_hit";
    case TraceEvent::kCallCancelled: return "call_cancelled";
    case TraceEvent::kCount: break;
  }
  return "unknown";
}

namespace detail {
template <std::size_t... I>
constexpr bool all_trace_events_named(std::index_sequence<I...>) {
  return (!obs_name_eq(trace_event_name(static_cast<TraceEvent>(I)),
                       "unknown") &&
          ...);
}
template <std::size_t... I>
constexpr bool all_span_kinds_named(std::index_sequence<I...>) {
  return (!obs_name_eq(span_kind_name(static_cast<SpanKind>(I)), "unknown") &&
          ...);
}
}  // namespace detail
static_assert(detail::all_trace_events_named(std::make_index_sequence<
                  static_cast<std::size_t>(TraceEvent::kCount)>{}),
              "every TraceEvent value needs a trace_event_name() case");
static_assert(detail::all_span_kinds_named(std::make_index_sequence<
                  static_cast<std::size_t>(SpanKind::kCount)>{}),
              "every SpanKind value needs a span_kind_name() case");

/// One record: 32 bytes, fixed layout. `ts` is simulated cycles for the
/// sim layer and steady-clock nanoseconds for the host runtime. The three
/// id fields are zero for plain (non-span) events; kSpanBegin/kSpanEnd and
/// ctx-carrying instants fill them so exporters can parent-link hops.
struct TraceRecord {
  std::uint64_t ts = 0;
  std::uint64_t trace_id = 0;  // 0 = not request-scoped
  std::uint32_t span = 0;      // this record's span id (0 = none)
  std::uint32_t parent = 0;    // parent span id (0 = root / none)
  std::uint32_t arg = 0;
  std::uint16_t slot = 0;
  std::uint16_t event = 0;
};
static_assert(sizeof(TraceRecord) == 32);

/// Single-writer bounded ring. Capacity is a compile-time power of two so
/// the index wrap is a mask, not a division.
class TraceRing {
 public:
  static constexpr std::size_t kCapacity = 4096;
  static_assert((kCapacity & (kCapacity - 1)) == 0);

  void record(std::uint64_t ts, std::uint16_t slot, TraceEvent event,
              std::uint32_t arg) {
    record_span(ts, slot, event, arg, 0, 0, 0);
  }

  /// Record with request-context ids attached (span events and ctx-carrying
  /// instants). Same cost class as record(): plain stores into the owned
  /// ring, wrap overwrites the oldest record.
  void record_span(std::uint64_t ts, std::uint16_t slot, TraceEvent event,
                   std::uint32_t arg, std::uint64_t trace_id,
                   std::uint32_t span, std::uint32_t parent) {
    TraceRecord& r = buf_[head_ & (kCapacity - 1)];
    r.ts = ts;
    r.trace_id = trace_id;
    r.span = span;
    r.parent = parent;
    r.arg = arg;
    r.slot = slot;
    r.event = static_cast<std::uint16_t>(event);
    ++head_;
  }

  /// Total records ever written (>= kCapacity means the ring has wrapped
  /// and the oldest records were overwritten).
  std::uint64_t total_recorded() const { return head_; }

  std::size_t size() const {
    return head_ < kCapacity ? static_cast<std::size_t>(head_) : kCapacity;
  }

  void reset() { head_ = 0; }

  /// Oldest-first copy of the retained records (owner or quiesced only —
  /// the ring is single-writer and unsynchronized by design).
  std::vector<TraceRecord> snapshot() const;

 private:
  std::array<TraceRecord, kCapacity> buf_{};
  std::uint64_t head_ = 0;
};

/// A labelled ring for export ("cpu0", "slot3", ...).
struct NamedRing {
  std::string label;
  const TraceRing* ring = nullptr;
};

/// Export as chrome://tracing / Perfetto JSON ("traceEvents" array of
/// instant events; tid = slot, ts in microseconds assuming `ts_per_us`
/// raw units per microsecond — pass 1000 for nanosecond host timestamps,
/// or the simulated clock rate in MHz for cycle timestamps).
std::string trace_to_chrome_json(const std::vector<NamedRing>& rings,
                                 double ts_per_us = 1000.0);

/// Export as plain JSON records (diff-friendly; raw timestamps).
std::string trace_to_json(const std::vector<NamedRing>& rings);

/// Steady-clock nanoseconds, for host-runtime trace timestamps (the sim
/// layer passes cpu.now() cycles instead).
std::uint64_t host_trace_now();

}  // namespace hppc::obs

// The hook macro. `ring` is evaluated only when tracing is compiled in, so
// the expression may be arbitrarily costly to reach (e.g. a map lookup) —
// with the toggle off nothing is evaluated at all.
#if defined(HPPC_TRACE) && HPPC_TRACE
#define HPPC_TRACE_EVENT(ring, ts, slot, event, arg) \
  (ring).record((ts), static_cast<std::uint16_t>(slot), (event), \
                static_cast<std::uint32_t>(arg))
#else
#define HPPC_TRACE_EVENT(ring, ts, slot, event, arg) ((void)0)
#endif
