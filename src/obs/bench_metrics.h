// Machine-readable bench output: every bench builds one BenchReport and
// writes it to BENCH_<name>.json next to the human-readable text, so the
// perf trajectory is diffable across PRs (`python3 -m json.tool` clean).
//
// The JSON vocabulary is deliberately small and stable:
//   {"bench": ..., "schema_version": 1,
//    "meta":    {string or number per key},
//    "scalars": {number per key},
//    "series":  {name: {count, mean, min, max, p50, p95, p99, p999}},
//    "tables":  {name: [row objects...]},
//    "counters": {label: {counter: value, ..., ["heap_allocs": n]}}}
// Keys keep insertion order so diffs stay minimal.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "obs/counters.h"

namespace hppc::obs {

/// Escape a string for embedding in JSON (quotes added by the caller).
std::string json_escape(const std::string& s);

/// Format a double the way the report does (shortest round-trippable-ish,
/// no NaN/Inf — those become 0 with a "_nonfinite" marker suffix removed).
std::string json_number(double v);

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // -- metadata (strings or numbers) --
  void meta(const std::string& key, const std::string& value);
  void meta(const std::string& key, double value);

  // -- single numbers --
  void scalar(const std::string& key, double value);

  // -- distributions: snapshot of a Percentiles recorder --
  void series(const std::string& key, const Percentiles& p);

  // -- tabular data (e.g. one row per CPU count) --
  struct Row {
    std::vector<std::pair<std::string, double>> cells;
    Row& cell(const std::string& key, double v) {
      cells.emplace_back(key, v);
      return *this;
    }
  };
  Row& row(const std::string& table);

  // -- counter snapshots --
  // Zero-valued counters are omitted. A block given `heap_allocs` (the
  // window's count from common/heap_audit.h) always carries it, 0
  // included, so a gate can tell "no allocation" from "not audited".
  void counters(const std::string& label, const CounterSnapshot& snap,
                std::optional<std::uint64_t> heap_allocs = std::nullopt);

  std::string to_json() const;

  /// "BENCH_<name>.json" in $HPPC_BENCH_DIR (or the working directory).
  std::string path() const;

  /// Write the JSON; returns false (and prints to stderr) on I/O failure.
  bool write() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;  // pre-rendered
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, const Percentiles*>> series_;
  std::vector<std::pair<std::string, std::vector<Row>>> tables_;
  struct CounterBlock {
    std::string label;
    CounterSnapshot snap;
    std::optional<std::uint64_t> heap_allocs;
  };
  std::vector<CounterBlock> counters_;
};

}  // namespace hppc::obs
