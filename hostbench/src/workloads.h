// The three closed-loop workloads and the per-layer metric helpers they
// share. Each run_* builds its system from scratch `cfg.setup_reps` times
// (the first build is the one measured), warms up, measures
// `cfg.seconds` split into `cfg.windows` sub-windows, checks every answer,
// and — on a traced run — records bench-owned spans and per-layer metrics.
#pragma once

#include <array>
#include <map>
#include <string>

#include "common.h"
#include "mem/arena.h"
#include "obs/counters.h"
#include "obs/histogram.h"

namespace hb {

Result run_local_direct(const RunConfig& cfg);
Result run_kv_ring(const RunConfig& cfg);
Result run_shm_bulk(const RunConfig& cfg);

using Layer = std::map<std::string, double>;
using AllSpans = std::array<SpanStats, kNumSpans>;

/// Operation counts the runtime counter ratios are taken over (warm-up and
/// measured phase together, exactly the window the counter deltas cover).
struct RtCounts {
  double ops = 0;               // public calls issued
  double remote_attempted = 0;  // call_remote* issued to another slot
  double puts = 0;              // KvService puts (any path)
  double repl_misses = 0;       // replica probes that fell through to a ring
};

/// Counter-derived per-layer metrics of a workload built on rt::Runtime:
/// xcall, repl, obs and mem ratios from the counter/histogram deltas.
void rt_counter_metrics(Layer& L, const hppc::obs::CounterSnapshot& d,
                        const hppc::obs::HistSnapshot& h,
                        const hppc::mem::ArenaStats& a, const RtCounts& c);

/// Quantile of a span's durations, in ns (0 when no span was recorded).
double span_ns(const AllSpans& s, Sp name, double q);

/// Ratio helper that reads 0 when the denominator is 0 (a bypassed layer).
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace hb
