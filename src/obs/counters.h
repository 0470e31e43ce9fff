// Per-slot observability counters, built the same way the facility itself
// is built (§2): every hot-path increment is a single-writer store into a
// fixed-id, cache-line-aligned block owned by exactly one slot (one rt
// thread slot or one simulated kernel::Cpu). Nothing on the fast path is
// an RMW, a lock, or a store to a line another slot writes; the relaxed
// load+store pair compiles to the same add-to-memory a plain store did,
// while letting a live observer read each word race-free. Blocks are
// merged only at snapshot time, the same way RunningStats::merge folds
// per-stream moments.
//
// The two headline counters — kLocksTaken and kSharedLinesTouched — exist
// to turn the paper's central claim ("in the common case the fast path
// accesses no shared data and requires no locks", §1, §2) from a comment
// into a measured invariant: after warmup, a null PPC must leave both at
// exactly zero in its slot's delta.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/cacheline.h"

namespace hppc::obs {

/// Fixed counter ids. Append only — ids are part of the BENCH_*.json and
/// kFrankStats contract across PRs. Keep the hottest ids in the first
/// cache line of the block (8 ids per 64-byte line).
enum class Counter : std::uint32_t {
  // -- call variants (hot: first line) --
  kCallsSync = 0,       // synchronous calls (incl. blocking-capable ones)
  kCallsAsync,          // §4.4 async variant
  kCallsBlocking,       // continuation-style synchronous calls
  kCallsRemote,         // cross-processor variant
  kCallsInterrupt,      // interrupt dispatches
  kCallsUpcall,         // software upcalls
  kNestedCalls,         // server-to-server calls from inside a handler
  kHoldCdHits,          // calls served by a permanently held CD (§2)

  // -- per-slot pool dynamics --
  kWorkerPoolHits,      // worker taken from the slot-local pool
  kWorkersCreated,      // pool grow (Frank redirect / host slow path)
  kWorkersReclaimed,    // pool shrink (trim, kill, exchange)
  kCdRecycles,          // CD taken from the slot-local free list
  kCdsCreated,          // CD pool grow
  kPoolTrims,           // trim_pools sweeps

  // -- slow-path entries (anything that leaves the per-slot fast path) --
  kSlowPathEntries,     // total slow-path diversions
  kFrankWorkerRefills,  // empty worker pool -> Frank
  kFrankCdRefills,      // empty CD pool -> Frank
  kHashedLookups,       // overflow-table lookups (§4.5.5 extension)
  kBinds,               // entry points bound
  kSoftKills,
  kHardKills,

  // -- cross-slot traffic (the host analogue of remote interrupts) --
  kMailboxPosts,        // retired, nothing books it (the mailbox is gone)
  kMailboxDrains,       // retired, nothing books it (the mailbox is gone)
  kIpisSent,            // simulated cross-processor interrupts sent
  kGatewayForwards,     // PPC->message gateway forwards (§5)

  // -- the zero-contention invariants --
  kLocksTaken,          // locks/mutexes acquired on behalf of this slot
  kSharedLinesTouched,  // stores/RMWs to cache lines other slots access

  // -- xcall: bounded cross-slot call rings (appended: ids are contract) --
  kXcallPosts,          // cells published into another slot's ring
  kXcallBatches,        // non-empty ring drain batches
  kXcallRingFull,       // posts that found the ring full
  kXcallDirect,         // remote calls direct-executed on an idle slot
  kMailboxAllocs,       // retired, nothing books it (common/heap_audit.h)

  // -- repl: replicated read-mostly objects (appended: ids are contract) --
  kReplReads,           // replica reads (seqlock-validated, lock-free)
  kReplSeqRetries,      // reads that observed a mid-update replica
  kReplInvalidations,   // replica updates propagated by a writer
  kReplFallbackLocked,  // reads that gave up retrying and took the master lock

  // -- robustness: fault injection, deadlines, overload shedding --
  kFaultsInjected,      // failpoints that fired on this slot's paths
  kDeadlineExceeded,    // calls abandoned because their deadline expired
  kCallsShed,           // calls rejected by admission control (watermark)
  kRetries,             // ring-full re-post attempts on the sync xcall path

  // -- batched submission, queued-work signals, adaptive waiters --
  kXcallBatchPosts,     // vectored ring submissions (one publish each)
  kXcallCellsPerBatch,  // cells carried by those submissions (sum)
  kReadyMaskSkips,      // cross-slot posts that found their target owned,
                        // so signalled nothing (its owner scans its rings)
  kWaiterParks,         // sync waiters that parked on the completion word
  kWaiterKicks,         // completions that woke a parked waiter

  // -- telemetry: drain accounting, trace degradation, snapshot exports --
  kXcallCellsDrained,   // ring cells retired by drains (the drain-rate source)
  kTraceDrops,          // spans dropped instead of blocking the call path
  kTelemetrySnaps,      // Runtime::telemetry() snapshots taken

  // -- frame ABI (Figure 4 register contract) + node-local arena gauges --
  kCallsFrame,          // frame-ABI calls executed (any path: local/direct/ring)
  kArenaBytesReserved,  // gauge: bytes mmap'd into the runtime arena
  kArenaHugepages,      // gauge: explicit hugepages backing arena chunks
  kArenaNodeMismatch,   // gauge: arena pages found resident off their node

  // -- request context: budgets, cancellation, traffic classes --
  kCallsBulk,           // calls admitted carrying TrafficClass::kBulk
  kCallsShedBulk,       // of kCallsShed, how many were bulk-class
  kCallsCancelled,      // calls refused/aborted because their token fired
  kCancelRequests,      // Runtime::cancel() invocations
  kDeadlineInherited,   // calls whose binding budget came from the ambient ctx
  kBulkDrainsDeferred,  // drain passes whose bulk pass drained cells after
                        // an interactive pass that drained cells

  // -- shm: cross-process transport, bulk copy engine, peer liveness --
  kShmSegmentsMapped,   // gauge: shm segments/regions this process has mapped
  kBulkCopyBytes,       // bytes moved by the CopyServer between granted regions
  kHeartbeatsMissed,    // reap passes that found a peer's heartbeat stale
  kPeerDeaths,          // peers declared dead and reaped (cells aborted)

  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

constexpr const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kCallsSync: return "calls_sync";
    case Counter::kCallsAsync: return "calls_async";
    case Counter::kCallsBlocking: return "calls_blocking";
    case Counter::kCallsRemote: return "calls_remote";
    case Counter::kCallsInterrupt: return "calls_interrupt";
    case Counter::kCallsUpcall: return "calls_upcall";
    case Counter::kNestedCalls: return "nested_calls";
    case Counter::kHoldCdHits: return "hold_cd_hits";
    case Counter::kWorkerPoolHits: return "worker_pool_hits";
    case Counter::kWorkersCreated: return "workers_created";
    case Counter::kWorkersReclaimed: return "workers_reclaimed";
    case Counter::kCdRecycles: return "cd_recycles";
    case Counter::kCdsCreated: return "cds_created";
    case Counter::kPoolTrims: return "pool_trims";
    case Counter::kSlowPathEntries: return "slow_path_entries";
    case Counter::kFrankWorkerRefills: return "frank_worker_refills";
    case Counter::kFrankCdRefills: return "frank_cd_refills";
    case Counter::kHashedLookups: return "hashed_lookups";
    case Counter::kBinds: return "binds";
    case Counter::kSoftKills: return "soft_kills";
    case Counter::kHardKills: return "hard_kills";
    case Counter::kMailboxPosts: return "mailbox_posts";
    case Counter::kMailboxDrains: return "mailbox_drains";
    case Counter::kIpisSent: return "ipis_sent";
    case Counter::kGatewayForwards: return "gateway_forwards";
    case Counter::kLocksTaken: return "locks_taken";
    case Counter::kSharedLinesTouched: return "shared_lines_touched";
    case Counter::kXcallPosts: return "xcall_posts";
    case Counter::kXcallBatches: return "xcall_batches";
    case Counter::kXcallRingFull: return "xcall_ring_full";
    case Counter::kXcallDirect: return "xcall_direct";
    case Counter::kMailboxAllocs: return "mailbox_allocs";
    case Counter::kReplReads: return "repl_reads";
    case Counter::kReplSeqRetries: return "repl_seq_retries";
    case Counter::kReplInvalidations: return "repl_invalidations";
    case Counter::kReplFallbackLocked: return "repl_fallback_locked";
    case Counter::kFaultsInjected: return "faults_injected";
    case Counter::kDeadlineExceeded: return "deadline_exceeded";
    case Counter::kCallsShed: return "calls_shed";
    case Counter::kRetries: return "retries";
    case Counter::kXcallBatchPosts: return "xcall_batch_posts";
    case Counter::kXcallCellsPerBatch: return "xcall_cells_per_batch";
    case Counter::kReadyMaskSkips: return "ready_mask_skips";
    case Counter::kWaiterParks: return "waiter_parks";
    case Counter::kWaiterKicks: return "waiter_kicks";
    case Counter::kXcallCellsDrained: return "xcall_cells_drained";
    case Counter::kTraceDrops: return "trace_drops";
    case Counter::kTelemetrySnaps: return "telemetry_snaps";
    case Counter::kCallsFrame: return "calls_frame";
    case Counter::kArenaBytesReserved: return "arena_bytes_reserved";
    case Counter::kArenaHugepages: return "arena_hugepages";
    case Counter::kArenaNodeMismatch: return "arena_node_mismatch";
    case Counter::kCallsBulk: return "calls_bulk";
    case Counter::kCallsShedBulk: return "calls_shed_bulk";
    case Counter::kCallsCancelled: return "calls_cancelled";
    case Counter::kCancelRequests: return "cancel_requests";
    case Counter::kDeadlineInherited: return "deadline_inherited";
    case Counter::kBulkDrainsDeferred: return "bulk_drains_deferred";
    case Counter::kShmSegmentsMapped: return "shm_segments_mapped";
    case Counter::kBulkCopyBytes: return "bulk_copy_bytes";
    case Counter::kHeartbeatsMissed: return "heartbeats_missed";
    case Counter::kPeerDeaths: return "peer_deaths";
    case Counter::kCount: break;
  }
  return "unknown";
}

/// Constexpr string equality for the compile-time name-exhaustiveness
/// checks here and in trace.h/histogram.h: a counter (or event, or
/// histogram) added without a name must break the build, not emit blank
/// keys into BENCH JSON.
constexpr bool obs_name_eq(const char* a, const char* b) {
  for (; *a != '\0' && *b != '\0'; ++a, ++b) {
    if (*a != *b) return false;
  }
  return *a == *b;
}

namespace detail {
template <std::size_t... I>
constexpr bool all_counters_named(std::index_sequence<I...>) {
  return (!obs_name_eq(counter_name(static_cast<Counter>(I)), "unknown") &&
          ...);
}
}  // namespace detail
static_assert(
    detail::all_counters_named(std::make_index_sequence<kNumCounters>{}),
    "every Counter value needs a counter_name() case");

/// A merged, point-in-time view of one or more counter blocks. Plain value
/// type: snapshots can be subtracted to get per-phase deltas.
struct CounterSnapshot {
  std::array<std::uint64_t, kNumCounters> v{};

  std::uint64_t get(Counter c) const {
    return v[static_cast<std::size_t>(c)];
  }

  void merge(const CounterSnapshot& o) {
    for (std::size_t i = 0; i < kNumCounters; ++i) v[i] += o.v[i];
  }

  /// Counter-wise `this - since` (for warmup-relative deltas), saturating
  /// at zero. Raw counters are monotonic so the subtraction cannot
  /// underflow on a well-ordered pair, but snapshot-derived values (see
  /// rt's derive_pool_counters) may undershoot by a bounded amount; a
  /// clamped zero reads far better in a report than 2^64 - k.
  CounterSnapshot delta(const CounterSnapshot& since) const {
    CounterSnapshot d;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      d.v[i] = v[i] > since.v[i] ? v[i] - since.v[i] : 0;
    }
    return d;
  }

  bool operator==(const CounterSnapshot&) const = default;
};

/// The per-slot block. Single writer (the owning slot/CPU). Increments are
/// single-writer relaxed stores — a load+store pair, NOT a fetch_add: with
/// one writer per block no RMW is needed and no line is contended (x86
/// codegen is the same plain add the block always used), but a concurrent
/// observer (Runtime::telemetry scraping a live system, the TSan merge
/// tests) reads each word race-free. Aligned so adjacent slots' blocks
/// never share a cache line.
struct alignas(kHostCacheLine) SlotCounters {
  std::array<std::atomic<std::uint64_t>, kNumCounters> v{};

  void inc(Counter c, std::uint64_t n = 1) {
    std::atomic<std::uint64_t>& a = v[static_cast<std::size_t>(c)];
    a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  std::uint64_t get(Counter c) const {
    return v[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto& a : v) a.store(0, std::memory_order_relaxed);
  }

  CounterSnapshot snapshot() const {
    CounterSnapshot s;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      s.v[i] = v[i].load(std::memory_order_relaxed);
    }
    return s;
  }
};

/// Counters for operations that do not run on behalf of a single slot
/// (binding, kills, cross-slot posts from unregistered threads). These sit
/// on slow paths by definition, so relaxed atomics are fine here — the
/// fast path never touches this block.
class SharedCounters {
 public:
  void inc(Counter c, std::uint64_t n = 1) {
    v_[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t get(Counter c) const {
    return v_[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto& a : v_) a.store(0, std::memory_order_relaxed);
  }

  CounterSnapshot snapshot() const {
    CounterSnapshot s;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      s.v[i] = v_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumCounters> v_{};
};

}  // namespace hppc::obs
