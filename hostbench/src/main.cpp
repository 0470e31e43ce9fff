// hostbench: one seeded command for the host IPC paths.
//
//   hostbench --workload local_direct|kv_ring|shm_bulk --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--corrupt-check K]
//
// --trace 0 measures the workload untraced and reports the end-to-end
// metrics. --trace 1 runs it traced for S seconds and reports the
// per-layer metrics of the layers it exercises; a short untraced slice of
// the same workload gives the tracing overhead. Human-readable lines come
// first; the last two lines are "MACHINE {...}" and "RESULT {...}", whose
// metrics are bare name/value pairs (units live in BENCHMARK.json). The
// exit code is 0 only when every answer was correct.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using namespace hb;

using Runner = std::function<Result(const RunConfig&)>;

const std::map<std::string, Runner>& workloads() {
  static const std::map<std::string, Runner> w = {
      {"local_direct", run_local_direct},
      {"kv_ring", run_kv_ring},
      {"shm_bulk", run_shm_bulk},
  };
  return w;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload "
               "local_direct|kv_ring|shm_bulk --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--corrupt-check K]\n",
               why);
  std::exit(2);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// The untraced baseline of a traced run (for the tracing overhead): one
/// set-up, a short warm-up, three windows.
RunConfig untraced_slice(const RunConfig& cfg) {
  RunConfig s = cfg;
  s.seconds = std::min(cfg.seconds, 1.5);
  s.windows = 3;
  s.warmup_s = std::min(cfg.warmup_s, 0.3);
  s.setup_reps = 1;
  s.traced = false;
  s.corrupt_check = -1;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  cfg.out_dir = ".bench_build/hostbench-spans";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
      have_seconds = true;
    } else if (a == "--trace") {
      cfg.traced = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || cfg.traced;
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else if (a == "--corrupt-check") {
      cfg.corrupt_check = std::strtoll(v, nullptr, 10);
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (workloads().count(workload) == 0) usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (!(cfg.seconds > 0) || cfg.seconds > 600) usage("bad --seconds");
  cfg.windows = static_cast<int>(
      std::clamp(std::lround(2 * cfg.seconds), 2L, 60L));
  cfg.warmup_s = std::clamp(cfg.seconds / 10, 0.2, 1.0);
  if (cfg.traced) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
  }

  calibrate_clock();
  const Runner& run = workloads().at(workload);
  Result main_run;
  std::uint64_t attempted = 0, failed = 0;
  Layer out;
  if (!cfg.traced) {
    main_run = run(cfg);
    attempted = main_run.attempted;
    failed = main_run.failed;
    out = {
        {"throughput_ops_s", main_run.throughput()},
        {"latency_p50_ns", median(main_run.p50_ns)},
        {"latency_p99_ns", median(main_run.p99_ns)},
        {"cpu_ns_per_op", main_run.cpu_ns_per_op()},
        {"setup_s", median(main_run.setup_s)},
        {"peak_rss_mib", main_run.peak_rss_mib},
    };
  } else {
    const Result untraced = run(untraced_slice(cfg));
    main_run = run(cfg);
    attempted = untraced.attempted + main_run.attempted;
    failed = untraced.failed + main_run.failed;
    out = main_run.layer;
    out["trace.overhead_frac"] =
        ratio(untraced.throughput(), main_run.throughput()) - 1.0;
  }

  std::printf("hostbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.traced ? 1 : 0);
  std::printf("  windows=%d x %.3fs, warm-up %.2fs, set-ups %d, latency "
              "samples %llu\n",
              cfg.windows, cfg.seconds / cfg.windows, cfg.warmup_s,
              cfg.setup_reps,
              static_cast<unsigned long long>(main_run.latency_samples));
  std::printf("  per-window ops/s:");
  for (const Window& w : main_run.windows) {
    std::printf(" %.4g", w.seconds > 0 ? static_cast<double>(w.ops) / w.seconds
                                       : 0.0);
  }
  std::printf("\n  per-window CPUs busy:");
  for (const Window& w : main_run.windows) {
    std::printf(" %.3g", w.seconds > 0 ? w.cpu_s / w.seconds : 0.0);
  }
  std::printf("\n  latency p90 / p99.9 ns (per-window medians): %.4g / %.4g",
              median(main_run.p90_ns), median(main_run.p999_ns));
  std::printf("\n  set-up ms:");
  for (double s : main_run.setup_s) std::printf(" %.3g", s * 1e3);
  std::printf("\n  op mix as run (share of measured ops, share of sampled "
              "time, sampled p50 / p99 ns):\n");
  double all_ops = 0, all_cy = 0;
  for (std::size_t k = 0; k < main_run.kind_names.size(); ++k) {
    all_ops += static_cast<double>(main_run.kind_ops[k]);
    all_cy += main_run.kind_lat[k].sum();
  }
  for (std::size_t k = 0; k < main_run.kind_names.size(); ++k) {
    const LogHist& h = main_run.kind_lat[k];
    std::printf("    %-16s %6.2f%% ops %6.2f%% time %10.4g / %.4g\n",
                main_run.kind_names[k],
                100 * ratio(static_cast<double>(main_run.kind_ops[k]), all_ops),
                100 * ratio(h.sum(), all_cy), h.quantile(0.5) / cy_per_ns(),
                h.quantile(0.99) / cy_per_ns());
  }
  for (const auto& [name, value] : main_run.notes) {
    std::printf("  %-34s %16.6g\n", name.c_str(), value);
  }
  for (const auto& [name, value] : out) {
    std::printf("  %-34s %16.6g\n", name.c_str(), value);
  }
  const double fail_ratio = ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted));
  std::printf("  %-34s %16.6g\n", "op_fail_ratio", fail_ratio);
  std::printf("  %-34s %16llu\n", "ops_attempted",
              static_cast<unsigned long long>(attempted));
  for (const std::string& n : take_failure_notes()) {
    std::printf("  failure: %s\n", n.c_str());
  }

  std::printf("MACHINE %s\n", machine_json().c_str());
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": " + num(value);
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 && attempted > 0 ? 0 : 1;
}
