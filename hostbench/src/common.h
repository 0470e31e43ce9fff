// Shared machinery of the host IPC benchmark: run configuration, the
// measurement clock, a log-linear latency histogram, the bench-owned span
// tracer, the sub-window phase clock every workload runs under, answer
// checking, CPU pinning and resource accounting.
//
// Everything here belongs to the benchmark, not to the runtime under test:
// the program under test only ever sees the public calls the workloads make.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/prng.h"
#include "common/tsc.h"

namespace hb {

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

inline std::uint64_t now_cy() { return hppc::host_cycles(); }
std::uint64_t steady_ns();

/// Cycles per nanosecond of host_cycles(), calibrated against steady_clock.
/// Updated from each measured phase's own start/end clock pairs.
double cy_per_ns();
void set_cy_per_ns(double v);
void calibrate_clock();
/// Mean cost of one host_cycles() read, in ns (recorded with the machine).
double clock_read_ns();

// ---------------------------------------------------------------------------
// Log-linear histogram (values in host cycles, ~1.6% bucket width)
// ---------------------------------------------------------------------------

class LogHist {
 public:
  static constexpr int kSub = 64;
  static constexpr std::size_t kBuckets = 128 + 57 * kSub;

  void add(std::uint64_t v) {
    ++b_[index(v)];
    ++n_;
    sum_ += static_cast<double>(v);
  }
  void merge(const LogHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    n_ += o.n_;
    sum_ += o.sum_;
  }
  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  /// Quantile in cycles, interpolated inside the owning bucket.
  double quantile(double q) const;

 private:
  static std::size_t index(std::uint64_t v);
  static double lo(std::size_t i);
  static double hi(std::size_t i);

  std::array<std::uint64_t, kBuckets> b_{};
  std::uint64_t n_ = 0;
  double sum_ = 0;
};

// ---------------------------------------------------------------------------
// Configuration and results
// ---------------------------------------------------------------------------

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;    // measured time of the main phase
  double warmup_s = 1.0;    // untimed warm-up before the first window
  int windows = 10;         // the measured time is split into this many
  int setup_reps = 21;      // full set-ups per run; median is reported
  bool traced = false;      // record bench-owned spans around every call
  long long corrupt_check = -1;  // test hook: falsify this answer check
  std::string out_dir;      // where traced runs write their spans
};

/// One measured sub-window of the main phase, summed over all threads.
struct Window {
  double seconds = 0;
  std::uint64_t ops = 0;
  double cpu_s = 0;  // process CPU time (plus the server child's, shm_bulk)
};

/// What one workload instance (set-up + warm-up + measured phase) yields.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Window> windows;
  std::vector<double> p50_ns;  // per-window sampled latency quantiles
  std::vector<double> p90_ns;
  std::vector<double> p99_ns;
  std::vector<double> p999_ns;
  std::uint64_t latency_samples = 0;
  std::vector<double> setup_s;  // one entry per set-up repetition
  double peak_rss_mib = 0;
  // The op mix as run: names of the op kinds, measured ops and sampled
  // latency per kind (measured phase only).
  std::vector<const char*> kind_names;
  std::vector<std::uint64_t> kind_ops;
  std::vector<LogHist> kind_lat;
  // Shares the seeded inputs produce (printed with the run, not metrics).
  std::map<std::string, double> notes;
  std::map<std::string, double> layer;  // per-layer metrics

  double throughput() const;       // median over windows, ops/s
  double cpu_ns_per_op() const;    // median over windows
};

double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// Span tracer (bench-owned; traced runs only)
// ---------------------------------------------------------------------------

/// Every span name the benchmark records. A span brackets one public call
/// into a layer, or the body of a bench-owned handler.
enum class Sp : std::uint32_t {
  kKvGet, kKvPut, kRtCall, kRtCallFrame, kRtDirect, kRtDirectFrame,
  kRtNested, kRtNestedInner, kRtGlobalPool, kHandlerEcho, kHandlerFrameEcho,
  kHandlerEchoDirect, kHandlerFrameEchoDirect, kHandlerNest, kKvGetRemoteHot, kKvGetRemoteCold, kKvPutRemoteHot,
  kKvPutRemoteCold, kKvMultiGet16, kXcallRemoteNull, kHandlerNull,
  kReplNudgePoll, kShmCallNull, kShmCall4k, kShmCall1m, kCopyResolve,
  kCopyInplaceRead, kCopyCopyFrom, kHandlerBulk, kCount
};
const char* span_name(Sp s);
inline constexpr std::size_t kNumSpans = static_cast<std::size_t>(Sp::kCount);

struct SpanStats {
  LogHist dur;              // span durations, cycles
  double total_cy = 0;      // sum of durations
  double self_cy = 0;       // sum of (duration - child span time)
};

class Tracer {
 public:
  struct Span {
    std::uint32_t name;
    std::int32_t parent;  // index into this thread's buffer, -1 = root
    std::uint64_t op;     // op id shared by every span of one request
    std::uint64_t t0, t1;
  };

  explicit Tracer(bool on, std::size_t cap = 1u << 14);
  bool on() const { return on_; }

  void begin(Sp name, std::uint64_t op) {
    if (!on_) return;
    open(name, op, now_cy());
  }
  void end() {
    if (!on_) return;
    const std::uint64_t t1 = now_cy();
    close(t1);
  }
  /// The current innermost open span's op id (0 when none is open).
  std::uint64_t current_op() const {
    return stack_.empty() ? 0 : stack_.back().op;
  }

  void merge_into(std::array<SpanStats, kNumSpans>& out) const;
  const std::vector<Span>& spans() const { return buf_; }

 private:
  struct Open {
    Sp name;
    std::uint64_t op;
    std::uint64_t t0;
    std::uint64_t child_cy;
    std::int32_t idx;  // buffer index, -1 when the buffer was full
  };
  void open(Sp name, std::uint64_t op, std::uint64_t t0);
  void close(std::uint64_t t1);

  bool on_;
  std::size_t cap_;
  std::vector<Open> stack_;
  std::vector<Span> buf_;
  std::array<SpanStats, kNumSpans> stats_{};
};

/// The calling thread's tracer (nullptr when the thread records nothing).
/// Bench-owned handlers run on whichever thread executes the call, so they
/// find their tracer here.
extern thread_local Tracer* tl_tracer;

/// RAII span: records only when `op` is nonzero (a sampled op of a traced
/// run) and the thread has a tracer.
class Scope {
 public:
  Scope(Sp name, std::uint64_t op)
      : t_(op != 0 && tl_tracer != nullptr && tl_tracer->on() ? tl_tracer
                                                               : nullptr) {
    if (t_ != nullptr) t_->begin(name, op);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

/// Handler-side span: nested under whatever traced op is open on this
/// thread (no-op when none is).
inline std::uint64_t handler_op() {
  return tl_tracer != nullptr ? tl_tracer->current_op() : 0;
}

/// Write every tracer's buffered spans as CSV (thread,name,op,parent,t0_ns,
/// t1_ns) to `path`. Returns false if the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers,
                 const std::string& role);

// ---------------------------------------------------------------------------
// Phase clock: warm-up, then `windows` equal sub-windows, then stop
// ---------------------------------------------------------------------------

class PhaseClock {
 public:
  static constexpr int kWarm = -1;

  /// Worker side: the current window index (kWarm before timing starts,
  /// >= windows() once the run is over).
  int window() const { return w_.load(std::memory_order_relaxed); }
  int windows() const { return n_; }

  /// Driver side (the coordinating thread). `on_boundary(i)` runs right
  /// after window i-1 ends and before window i starts (i = 0 .. n); it is
  /// where process CPU time is sampled.
  template <typename Fn>
  std::vector<Window> run(const RunConfig& cfg, Fn&& on_tick);

  void reset(int n) {
    n_ = n;
    w_.store(kWarm, std::memory_order_relaxed);
  }
  void advance(int w) { w_.store(w, std::memory_order_release); }

 private:
  alignas(64) std::atomic<int> w_{kWarm};
  int n_ = 1;
};

inline constexpr std::size_t kMaxKinds = 8;  // op kinds of one workload

/// One load thread's tallies, written on every op. Each thread allocates
/// its own (so the vectors come from its own malloc arena) and the block is
/// line-aligned: no two threads ever write one cache line, which would make
/// the measured rate depend on line-transfer latency between cores.
struct alignas(64) ThreadTally {
  explicit ThreadTally(int windows)
      : ops(static_cast<std::size_t>(windows), 0),
        lat(static_cast<std::size_t>(windows)),
        bytes(static_cast<std::size_t>(windows), 0.0) {}
  std::vector<std::uint64_t> ops;   // measured ops per window
  std::vector<LogHist> lat;         // sampled op latency per window, cycles
  std::vector<double> bytes;        // verified payload bytes per window
  std::array<std::uint64_t, kMaxKinds> kinds{};  // ops issued per op kind
  std::array<std::uint64_t, kMaxKinds> kind_ops{};  // measured ops per kind
  std::array<LogHist, kMaxKinds> kind_lat;  // sampled latency per kind
  std::uint64_t attempted = 0;      // every op issued, warm-up included
  std::uint64_t failed = 0;
  std::uint64_t samples = 0;
  std::uint64_t overloaded = 0;     // calls refused with kOverloaded

  /// Book one finished op of `kind`: `w` is the window it ran in (< 0 in
  /// the warm-up), `t0` its start cycle when it was sampled, else 0.
  void record(int w, std::uint64_t t0, bool ok, std::size_t kind) {
    ++kinds[kind];
    ++attempted;
    if (!ok) ++failed;
    if (w < 0) return;
    ++ops[static_cast<std::size_t>(w)];
    ++kind_ops[kind];
    if (t0 != 0) {
      const std::uint64_t d = now_cy() - t0;
      lat[static_cast<std::size_t>(w)].add(d);
      kind_lat[kind].add(d);
      ++samples;
    }
  }
};
using TallyPtr = std::unique_ptr<ThreadTally>;

/// Fold thread tallies and the window clock into `r` (ops, quantiles, the
/// op mix as run); `kind_names` names the workload's op kinds in order.
void fold_tallies(Result& r, const std::vector<TallyPtr>& tallies,
                  const std::vector<Window>& clock_windows,
                  const std::vector<const char*>& kind_names);

// ---------------------------------------------------------------------------
// Answer checking
// ---------------------------------------------------------------------------

/// Counts answer checks on one thread. The corrupt hook falsifies the
/// expected value of exactly one check (process-wide check number), which
/// the benchmark's own test uses to prove a wrong answer fails the run.
class Checker {
 public:
  explicit Checker(long long corrupt_at, bool owns_hook)
      : corrupt_at_(owns_hook ? corrupt_at : -1) {}
  bool eq(std::uint64_t got, std::uint64_t want) {
    if (static_cast<long long>(n_++) == corrupt_at_) want ^= 1;
    return got == want;
  }

 private:
  long long corrupt_at_;
  std::uint64_t n_ = 0;
};

/// Thread-safe collector of the first few failure descriptions.
void note_failure(const std::string& what);
std::vector<std::string> take_failure_notes();

// ---------------------------------------------------------------------------
// Machine, CPUs and resources
// ---------------------------------------------------------------------------

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();
/// Pin the calling thread to `cpu` (best effort; returns success).
bool pin_self(int cpu);
/// CPU that worker `i` (0-based, 3 workers) should run on: the i-th allowed
/// CPU, leaving the last allowed CPU to the OS and the coordinating thread.
int worker_cpu(int i);
int coordinator_cpu();

double process_cpu_s();   // getrusage(RUSAGE_SELF) user+system
/// This process image's peak resident memory: VmHWM of /proc/self/status.
/// Not ru_maxrss, which Linux carries across execve, so it would include the
/// peak of whatever process started the benchmark.
double peak_rss_mib();

/// Index i drawn with probability weight[i] / 100 (weights sum to 100).
template <std::size_t N>
std::size_t pick_weighted(hppc::Prng& rng, const std::array<int, N>& weight) {
  int pick = static_cast<int>(rng.below(100));
  std::size_t k = 0;
  while (pick >= weight[k]) pick -= weight[k++];
  return k;
}

/// Zipf(s) sampler over ranks [0, n): precomputed CDF, binary search.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(hppc::Prng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Machine record printed with every result (JSON object text).
std::string machine_json();

/// Quantile of a small vector of doubles (linear interpolation).
double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// PhaseClock::run
// ---------------------------------------------------------------------------

void sleep_until_ns(std::uint64_t t_ns);

template <typename Fn>
std::vector<Window> PhaseClock::run(const RunConfig& cfg, Fn&& on_tick) {
  n_ = cfg.windows;
  std::vector<Window> out(static_cast<std::size_t>(n_));
  const std::uint64_t warm_end =
      steady_ns() + static_cast<std::uint64_t>(cfg.warmup_s * 1e9);
  sleep_until_ns(warm_end);
  const double win_ns = cfg.seconds * 1e9 / n_;
  const std::uint64_t t0 = steady_ns();
  const std::uint64_t c0 = now_cy();
  double cpu_prev = on_tick(0);
  std::uint64_t prev = steady_ns();
  advance(0);
  for (int i = 1; i <= n_; ++i) {
    sleep_until_ns(t0 + static_cast<std::uint64_t>(win_ns * i));
    advance(i);
    const std::uint64_t now = steady_ns();
    const double cpu = on_tick(i);
    out[static_cast<std::size_t>(i - 1)].seconds =
        static_cast<double>(now - prev) * 1e-9;
    out[static_cast<std::size_t>(i - 1)].cpu_s = cpu - cpu_prev;
    cpu_prev = cpu;
    prev = now;
  }
  const std::uint64_t t1 = steady_ns();
  const std::uint64_t c1 = now_cy();
  if (t1 > t0) {
    set_cy_per_ns(static_cast<double>(c1 - c0) / static_cast<double>(t1 - t0));
  }
  return out;
}

}  // namespace hb
