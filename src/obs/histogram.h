// Always-on per-slot latency histograms, built to the same discipline as
// the counters (§2 applied to metrics): every hot-path sample is one
// single-writer store into a fixed-id, cache-line-aligned block owned by
// exactly one slot/CPU. Buckets are log2 (bucket i holds values whose
// bit_width is i, i.e. [2^(i-1), 2^i)), so recording is one std::bit_width
// plus one store — no division, no search, no floating point. Blocks are
// merged only at snapshot time, exactly like CounterSnapshot.
//
// The bucket stores are relaxed atomics with a load+store pair rather than
// a fetch_add: there is still exactly ONE writer per block (the slot's
// current ownership holder), so no RMW is needed, no cache line is
// contended, and x86 codegen is the same plain add — but a concurrent
// observer (Runtime::telemetry scraping a live system) reads each word
// race-free, which keeps the whole telemetry path TSan-clean.
//
// Units are whatever clock the recording layer uses: host_cycles() ticks
// for rt::Runtime, simulated cycles for the sim facility. Snapshots carry
// raw bucket counts; the telemetry layer converts to nanoseconds with its
// calibrated cycles-per-ns when it derives quantiles.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/cacheline.h"
#include "obs/counters.h"  // obs_name_eq, for the exhaustiveness check

namespace hppc::obs {

/// Fixed histogram ids — one per instrumented latency/size distribution.
/// Append only, same contract as obs::Counter: ids appear in BENCH JSON
/// and telemetry exports.
enum class Hist : std::uint32_t {
  // -- call round-trip time, per call class --
  kRttSync = 0,   // same-slot synchronous call (rt: host cycles; sim: cycles)
  kRttRemote,     // cross-slot sync call_remote, no deadline
  kRttBatched,    // call_remote_batch, whole-chunk RTT per submitted chunk
  kRttDeadlined,  // deadline-carrying cross-slot call (completed or expired)
  kRttAsync,      // retired in rt: an async cell has no room for a stamp

  // -- queue dynamics --
  kRingWait,      // ring publish -> completion observed by the caller
  kDrainBatch,    // cells retired per non-empty ring drain batch (a count)
  kWakeup,        // park -> kick wakeup latency of a parked sync waiter
  kServerExec,    // server-side handler execution time (sim file server)
  kRttBulk,       // end-to-end RTT of bulk-class remote calls (any path)

  kCount
};

inline constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kCount);

constexpr const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kRttSync: return "rtt_sync";
    case Hist::kRttRemote: return "rtt_remote";
    case Hist::kRttBatched: return "rtt_batched";
    case Hist::kRttDeadlined: return "rtt_deadlined";
    case Hist::kRttAsync: return "rtt_async";
    case Hist::kRingWait: return "ring_wait";
    case Hist::kDrainBatch: return "drain_batch";
    case Hist::kWakeup: return "wakeup";
    case Hist::kServerExec: return "server_exec";
    case Hist::kRttBulk: return "rtt_bulk";
    case Hist::kCount: break;
  }
  return "unknown";
}

namespace detail {
template <std::size_t... I>
constexpr bool all_hists_named(std::index_sequence<I...>) {
  return (!obs_name_eq(hist_name(static_cast<Hist>(I)), "unknown") && ...);
}
}  // namespace detail
static_assert(detail::all_hists_named(std::make_index_sequence<kNumHists>{}),
              "every Hist value needs a hist_name() case");

/// Buckets per histogram. Bucket 0 holds the value 0; bucket i (i >= 1)
/// holds [2^(i-1), 2^i). 64-bit values with bit_width > 63 clamp into the
/// last bucket — at cycle granularity that is decades, not data.
inline constexpr std::size_t kHistBuckets = 64;

constexpr std::size_t hist_bucket_of(std::uint64_t v) {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

/// Lower/upper bound of a bucket's value range (upper is exclusive; the
/// last bucket is open-ended and reports its lower bound doubled).
constexpr std::uint64_t hist_bucket_lo(std::size_t b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}
constexpr std::uint64_t hist_bucket_hi(std::size_t b) {
  if (b == 0) return 1;
  if (b >= kHistBuckets - 1) return hist_bucket_lo(b) * 2;
  return std::uint64_t{1} << b;
}

/// Merged, point-in-time view of one or more histogram blocks. Plain value
/// type: snapshots subtract to per-phase deltas, exactly like
/// CounterSnapshot.
struct HistSnapshot {
  std::array<std::array<std::uint64_t, kHistBuckets>, kNumHists> b{};

  std::uint64_t count(Hist h) const {
    std::uint64_t n = 0;
    for (std::uint64_t c : b[static_cast<std::size_t>(h)]) n += c;
    return n;
  }

  void merge(const HistSnapshot& o) {
    for (std::size_t h = 0; h < kNumHists; ++h) {
      for (std::size_t i = 0; i < kHistBuckets; ++i) b[h][i] += o.b[h][i];
    }
  }

  /// Bucket-wise `this - since`, saturating at zero (same rationale as
  /// CounterSnapshot::delta).
  HistSnapshot delta(const HistSnapshot& since) const {
    HistSnapshot d;
    for (std::size_t h = 0; h < kNumHists; ++h) {
      for (std::size_t i = 0; i < kHistBuckets; ++i) {
        d.b[h][i] =
            b[h][i] > since.b[h][i] ? b[h][i] - since.b[h][i] : 0;
      }
    }
    return d;
  }

  /// Approximate quantile (q in [0, 1]) by linear interpolation inside the
  /// owning bucket. Exact to within the bucket's factor-of-two width —
  /// the usual log-bucket tradeoff. Returns 0 for an empty histogram.
  double quantile(Hist h, double q) const {
    const auto& hb = b[static_cast<std::size_t>(h)];
    std::uint64_t total = 0;
    for (std::uint64_t c : hb) total += c;
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(total);
    double seen = 0.0;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      if (hb[i] == 0) continue;
      const double next = seen + static_cast<double>(hb[i]);
      if (next >= target) {
        const double frac =
            hb[i] == 0 ? 0.0
                       : (target - seen) / static_cast<double>(hb[i]);
        const double lo = static_cast<double>(hist_bucket_lo(i));
        const double hi = static_cast<double>(hist_bucket_hi(i));
        return lo + frac * (hi - lo);
      }
      seen = next;
    }
    return static_cast<double>(hist_bucket_hi(kHistBuckets - 1));
  }

  /// Approximate mean from bucket midpoints.
  double mean(Hist h) const {
    const auto& hb = b[static_cast<std::size_t>(h)];
    double total = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      if (hb[i] == 0) continue;
      const double mid = 0.5 * (static_cast<double>(hist_bucket_lo(i)) +
                                static_cast<double>(hist_bucket_hi(i)));
      sum += mid * static_cast<double>(hb[i]);
      total += static_cast<double>(hb[i]);
    }
    return total == 0.0 ? 0.0 : sum / total;
  }

  bool operator==(const HistSnapshot&) const = default;
};

/// The per-slot histogram block. Single writer (the slot's current
/// ownership holder); single-writer relaxed stores, no RMW, no fences.
/// Aligned so adjacent slots' blocks never share a cache line.
struct alignas(kHostCacheLine) SlotHistograms {
  std::array<std::array<std::atomic<std::uint64_t>, kHistBuckets>, kNumHists>
      b{};

  void record(Hist h, std::uint64_t v) {
    std::atomic<std::uint64_t>& c =
        b[static_cast<std::size_t>(h)][hist_bucket_of(v)];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  std::uint64_t count(Hist h) const {
    std::uint64_t n = 0;
    for (const auto& c : b[static_cast<std::size_t>(h)]) {
      n += c.load(std::memory_order_relaxed);
    }
    return n;
  }

  void reset() {
    for (auto& h : b) {
      for (auto& c : h) c.store(0, std::memory_order_relaxed);
    }
  }

  HistSnapshot snapshot() const {
    HistSnapshot s;
    for (std::size_t h = 0; h < kNumHists; ++h) {
      for (std::size_t i = 0; i < kHistBuckets; ++i) {
        s.b[h][i] = b[h][i].load(std::memory_order_relaxed);
      }
    }
    return s;
  }
};

}  // namespace hppc::obs
