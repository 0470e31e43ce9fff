#include "common.h"

#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace hb {

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Result::throughput() const {
  std::vector<double> v;
  for (const Window& w : windows) {
    if (w.seconds > 0) v.push_back(static_cast<double>(w.ops) / w.seconds);
  }
  return median(v);
}

double Result::cpu_ns_per_op() const {
  std::vector<double> v;
  for (const Window& w : windows) {
    if (w.ops > 0) v.push_back(w.cpu_s * 1e9 / static_cast<double>(w.ops));
  }
  return median(v);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
std::atomic<double> g_cy_per_ns{1.0};
}

double cy_per_ns() { return g_cy_per_ns.load(std::memory_order_relaxed); }
void set_cy_per_ns(double v) {
  if (v > 0 && std::isfinite(v)) g_cy_per_ns.store(v, std::memory_order_relaxed);
}

void calibrate_clock() {
  const std::uint64_t t0 = steady_ns();
  const std::uint64_t c0 = now_cy();
  while (steady_ns() - t0 < 50'000'000ull) {
  }
  const std::uint64_t t1 = steady_ns();
  const std::uint64_t c1 = now_cy();
  set_cy_per_ns(static_cast<double>(c1 - c0) / static_cast<double>(t1 - t0));
}

double clock_read_ns() {
  constexpr int kReads = 1 << 20;
  std::uint64_t sink = 0;
  const std::uint64_t t0 = steady_ns();
  for (int i = 0; i < kReads; ++i) sink += now_cy();
  const std::uint64_t t1 = steady_ns();
  if (sink == 42) std::puts("");  // keep the loop
  return static_cast<double>(t1 - t0) / kReads;
}

void sleep_until_ns(std::uint64_t t_ns) {
  for (;;) {
    const std::uint64_t now = steady_ns();
    if (now >= t_ns) return;
    const std::uint64_t left = t_ns - now;
    if (left > 2'000'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 1'000'000));
    } else {
      std::this_thread::yield();
    }
  }
}

// ---------------------------------------------------------------------------
// LogHist
// ---------------------------------------------------------------------------

std::size_t LogHist::index(std::uint64_t v) {
  if (v < 128) return static_cast<std::size_t>(v);
  const int msb = 63 - __builtin_clzll(v);  // >= 7
  const int shift = msb - 6;                // >= 1
  const std::size_t idx = 128 + static_cast<std::size_t>(shift - 1) * kSub +
                          static_cast<std::size_t>((v >> shift) - kSub);
  return std::min(idx, kBuckets - 1);
}

double LogHist::lo(std::size_t i) {
  if (i < 128) return static_cast<double>(i);
  const std::size_t shift = (i - 128) / kSub + 1;
  const std::size_t m = (i - 128) % kSub + kSub;
  return std::ldexp(static_cast<double>(m), static_cast<int>(shift));
}

double LogHist::hi(std::size_t i) {
  if (i < 128) return static_cast<double>(i) + 1.0;
  const std::size_t shift = (i - 128) / kSub + 1;
  const std::size_t m = (i - 128) % kSub + kSub;
  return std::ldexp(static_cast<double>(m + 1), static_cast<int>(shift));
}

double LogHist::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(n_);
  double seen = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (b_[i] == 0) continue;
    const double next = seen + static_cast<double>(b_[i]);
    if (next >= target) {
      const double frac = (target - seen) / static_cast<double>(b_[i]);
      return lo(i) + frac * (hi(i) - lo(i));
    }
    seen = next;
  }
  return hi(kBuckets - 1);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

const char* span_name(Sp s) {
  switch (s) {
    case Sp::kKvGet: return "kv.get";
    case Sp::kKvPut: return "kv.put";
    case Sp::kRtCall: return "rt.call";
    case Sp::kRtCallFrame: return "rt.call_frame";
    case Sp::kRtDirect: return "rt.direct";
    case Sp::kRtDirectFrame: return "rt.direct_frame";
    case Sp::kRtNested: return "rt.nested";
    case Sp::kRtNestedInner: return "rt.nested_inner";
    case Sp::kRtGlobalPool: return "rt.global_pool";
    case Sp::kHandlerEcho: return "handler.echo";
    case Sp::kHandlerFrameEcho: return "handler.frame_echo";
    case Sp::kHandlerEchoDirect: return "handler.echo_direct";
    case Sp::kHandlerFrameEchoDirect: return "handler.frame_echo_direct";
    case Sp::kHandlerNest: return "handler.nest";
    case Sp::kKvGetRemoteHot: return "kv.get_remote_hot";
    case Sp::kKvGetRemoteCold: return "kv.get_remote_cold";
    case Sp::kKvPutRemoteHot: return "kv.put_remote_hot";
    case Sp::kKvPutRemoteCold: return "kv.put_remote_cold";
    case Sp::kKvMultiGet16: return "kv.multi_get16";
    case Sp::kXcallRemoteNull: return "xcall.remote_null";
    case Sp::kHandlerNull: return "handler.null";
    case Sp::kReplNudgePoll: return "repl.nudge_poll";
    case Sp::kShmCallNull: return "shm.call_null";
    case Sp::kShmCall4k: return "shm.call_4k";
    case Sp::kShmCall1m: return "shm.call_1m";
    case Sp::kCopyResolve: return "copy.resolve";
    case Sp::kCopyInplaceRead: return "copy.inplace_read";
    case Sp::kCopyCopyFrom: return "copy.copy_from";
    case Sp::kHandlerBulk: return "handler.bulk";
    case Sp::kCount: break;
  }
  return "unknown";
}

thread_local Tracer* tl_tracer = nullptr;

Tracer::Tracer(bool on, std::size_t cap) : on_(on), cap_(cap) {
  if (on_) {
    stack_.reserve(16);
    buf_.reserve(cap_);
  }
}

void Tracer::open(Sp name, std::uint64_t op, std::uint64_t t0) {
  std::int32_t idx = -1;
  if (buf_.size() < cap_) {
    idx = static_cast<std::int32_t>(buf_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().idx;
    buf_.push_back(Span{static_cast<std::uint32_t>(name), parent, op, t0, t0});
  }
  stack_.push_back(Open{name, op, t0, 0, idx});
}

void Tracer::close(std::uint64_t t1) {
  const Open o = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t1 - o.t0;
  SpanStats& s = stats_[static_cast<std::size_t>(o.name)];
  s.dur.add(dur);
  s.total_cy += static_cast<double>(dur);
  s.self_cy += static_cast<double>(dur > o.child_cy ? dur - o.child_cy : 0);
  if (!stack_.empty()) stack_.back().child_cy += dur;
  if (o.idx >= 0) buf_[static_cast<std::size_t>(o.idx)].t1 = t1;
}

void Tracer::merge_into(std::array<SpanStats, kNumSpans>& out) const {
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    out[i].dur.merge(stats_[i].dur);
    out[i].total_cy += stats_[i].total_cy;
    out[i].self_cy += stats_[i].self_cy;
  }
}

bool write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers,
                 const std::string& role) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "role,thread,name,op,parent,t0_ns,t1_ns\n");
  const double k = 1.0 / cy_per_ns();
  std::uint64_t base = ~0ull;
  for (const Tracer* t : tracers) {
    for (const Tracer::Span& s : t->spans()) base = std::min(base, s.t0);
  }
  for (std::size_t th = 0; th < tracers.size(); ++th) {
    for (const Tracer::Span& s : tracers[th]->spans()) {
      std::fprintf(f, "%s,%zu,%s,%llu,%d,%.1f,%.1f\n", role.c_str(), th,
                   span_name(static_cast<Sp>(s.name)),
                   static_cast<unsigned long long>(s.op), s.parent,
                   static_cast<double>(s.t0 - base) * k,
                   static_cast<double>(s.t1 - base) * k);
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Tallies
// ---------------------------------------------------------------------------

void fold_tallies(Result& r, const std::vector<TallyPtr>& tallies,
                  const std::vector<Window>& clock_windows,
                  const std::vector<const char*>& kind_names) {
  r.windows = clock_windows;
  r.kind_names = kind_names;
  r.kind_ops.assign(kind_names.size(), 0);
  r.kind_lat.assign(kind_names.size(), LogHist{});
  for (const TallyPtr& t : tallies) {
    for (std::size_t k = 0; k < kind_names.size(); ++k) {
      r.kind_ops[k] += t->kind_ops[k];
      r.kind_lat[k].merge(t->kind_lat[k]);
    }
  }
  const double k = 1.0 / cy_per_ns();
  for (std::size_t w = 0; w < r.windows.size(); ++w) {
    LogHist h;
    for (const TallyPtr& t : tallies) {
      r.windows[w].ops += t->ops[w];
      h.merge(t->lat[w]);
    }
    if (h.count() > 0) {
      r.p50_ns.push_back(h.quantile(0.50) * k);
      r.p90_ns.push_back(h.quantile(0.90) * k);
      r.p99_ns.push_back(h.quantile(0.99) * k);
      r.p999_ns.push_back(h.quantile(0.999) * k);
    }
  }
  for (const TallyPtr& t : tallies) {
    r.attempted += t->attempted;
    r.failed += t->failed;
    r.latency_samples += t->samples;
  }
}

// ---------------------------------------------------------------------------
// Per-layer metric helpers
// ---------------------------------------------------------------------------

void rt_counter_metrics(Layer& L, const hppc::obs::CounterSnapshot& d,
                        const hppc::obs::HistSnapshot& h,
                        const hppc::mem::ArenaStats& a, const RtCounts& c) {
  using hppc::obs::Counter;
  const auto g = [&d](Counter k) { return static_cast<double>(d.get(k)); };
  const double posts = g(Counter::kXcallPosts);
  L["xcall.posts_per_op"] = ratio(posts, c.ops);
  L["xcall.cells_per_batch"] =
      ratio(g(Counter::kXcallCellsDrained), g(Counter::kXcallBatches));
  L["xcall.doorbell_skip_ratio"] = ratio(g(Counter::kReadyMaskSkips), posts);
  L["xcall.ring_full_per_kop"] = ratio(1000 * g(Counter::kXcallRingFull), c.ops);
  L["xcall.waiter_parks_per_kop"] =
      ratio(1000 * g(Counter::kWaiterParks), c.ops);
  L["xcall.waiter_kicks_per_kop"] =
      ratio(1000 * g(Counter::kWaiterKicks), c.ops);
  const double direct_frac = ratio(g(Counter::kXcallDirect), c.remote_attempted);
  L["xcall.direct_frac"] = direct_frac;
  L["rt.direct_frac"] = direct_frac;
  L["obs.rtt_hist_samples_per_call"] =
      ratio(static_cast<double>(h.count(hppc::obs::Hist::kRttSync)),
            g(Counter::kCallsSync));
  const double reads = g(Counter::kReplReads);
  L["repl.hit_ratio"] = ratio(reads - c.repl_misses, reads);
  L["repl.seq_retries_per_kread"] =
      ratio(1000 * g(Counter::kReplSeqRetries), reads);
  L["repl.fallback_locked_per_kread"] =
      ratio(1000 * g(Counter::kReplFallbackLocked), reads);
  L["repl.invalidations_per_put"] =
      ratio(g(Counter::kReplInvalidations), c.puts);
  L["mem.arena_bytes_reserved"] = static_cast<double>(a.bytes_reserved);
  L["mem.hugepage_fallbacks"] = static_cast<double>(a.hugepage_fallbacks);
}

double span_ns(const AllSpans& s, Sp name, double q) {
  return s[static_cast<std::size_t>(name)].dur.quantile(q) / cy_per_ns();
}

// ---------------------------------------------------------------------------
// Failure notes
// ---------------------------------------------------------------------------

namespace {
std::mutex g_notes_mu;
std::vector<std::string> g_notes;
}  // namespace

void note_failure(const std::string& what) {
  std::lock_guard<std::mutex> lock(g_notes_mu);
  if (g_notes.size() < 8) g_notes.push_back(what);
}

std::vector<std::string> take_failure_notes() {
  std::lock_guard<std::mutex> lock(g_notes_mu);
  std::vector<std::string> out;
  out.swap(g_notes);
  return out;
}

// ---------------------------------------------------------------------------
// CPUs and resources
// ---------------------------------------------------------------------------

std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  if (out.empty()) out.push_back(0);
  return out;
}

bool pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

namespace {
std::string read_first_line_with(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return line;
  }
  return "";
}

const std::vector<int>& cpus() {
  static const std::vector<int> c = allowed_cpus();
  return c;
}
}  // namespace

int worker_cpu(int i) {
  const std::vector<int>& c = cpus();
  const std::size_t usable = c.size() > 3 ? c.size() - 1 : c.size();
  return c[static_cast<std::size_t>(i) % usable];
}

int coordinator_cpu() { return cpus().back(); }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  const std::string hwm = read_first_line_with("/proc/self/status", "VmHWM:");
  if (!hwm.empty()) {
    return std::strtod(hwm.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------------

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(hppc::Prng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

// ---------------------------------------------------------------------------
// Machine record
// ---------------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

std::string machine_json() {
  const std::string flags = read_first_line_with("/proc/cpuinfo", "flags");
  const bool hypervisor = flags.find(" hypervisor") != std::string::npos;
  std::string model = read_first_line_with("/proc/cpuinfo", "model name");
  if (const auto p = model.find(':'); p != std::string::npos) {
    model = model.substr(p + 2);
  }
  std::string huge = read_first_line_with("/proc/meminfo", "HugePages_Total");
  long huge_total = 0;
  if (const auto p = huge.find(':'); p != std::string::npos) {
    huge_total = std::strtol(huge.c_str() + p + 1, nullptr, 10);
  }
  std::string thp;
  {
    std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
    std::getline(in, thp);
  }
  std::ostringstream o;
  o.precision(6);
  o << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"allowed_cpus\":" << cpus().size()
    << ",\"cpu_model\":\"" << json_escape(model) << "\""
    << ",\"hypervisor\":" << (hypervisor ? "true" : "false")
    << ",\"clock_read_ns\":" << clock_read_ns()
    << ",\"cycles_per_ns\":" << cy_per_ns()
    << ",\"hugepages_total\":" << huge_total
    << ",\"thp\":\"" << json_escape(thp) << "\""
    << ",\"compiler\":\"" << json_escape(__VERSION__) << "\""
    << ",\"build_type\":\"" << HOSTBENCH_BUILD_TYPE << "\"}";
  return o.str();
}

}  // namespace hb
