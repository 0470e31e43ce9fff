#include "obs/bench_metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/registry.h"

namespace hppc::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  // Integers print without a fraction; everything else gets enough digits
  // to round-trip typical latency/throughput values.
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

void BenchReport::meta(const std::string& key, const std::string& value) {
  // Built with append: `"\"" + std::string` trips GCC 12's -Wrestrict
  // false positive at -O2 and above.
  std::string quoted = "\"";
  quoted.append(json_escape(value)).append("\"");
  meta_.emplace_back(key, std::move(quoted));
}

void BenchReport::meta(const std::string& key, double value) {
  meta_.emplace_back(key, json_number(value));
}

void BenchReport::scalar(const std::string& key, double value) {
  scalars_.emplace_back(key, value);
}

void BenchReport::series(const std::string& key, const Percentiles& p) {
  series_.emplace_back(key, &p);
}

BenchReport::Row& BenchReport::row(const std::string& table) {
  for (auto& [name, rows] : tables_) {
    if (name == table) {
      rows.emplace_back();
      return rows.back();
    }
  }
  tables_.emplace_back(table, std::vector<Row>(1));
  return tables_.back().second.back();
}

void BenchReport::counters(const std::string& label,
                           const CounterSnapshot& snap,
                           std::optional<std::uint64_t> heap_allocs) {
  counters_.push_back({label, snap, heap_allocs});
}

std::string BenchReport::to_json() const {
  std::string out = "{\"bench\":\"" + json_escape(name_) +
                    "\",\"schema_version\":1";

  if (!meta_.empty()) {
    out += ",\"meta\":{";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      if (i != 0) out += ',';
      out += '"' + json_escape(meta_[i].first) + "\":" + meta_[i].second;
    }
    out += '}';
  }

  if (!scalars_.empty()) {
    out += ",\"scalars\":{";
    for (std::size_t i = 0; i < scalars_.size(); ++i) {
      if (i != 0) out += ',';
      out += '"' + json_escape(scalars_[i].first) +
             "\":" + json_number(scalars_[i].second);
    }
    out += '}';
  }

  if (!series_.empty()) {
    out += ",\"series\":{";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      if (i != 0) out += ',';
      const Percentiles& p = *series_[i].second;
      out += '"' + json_escape(series_[i].first) + "\":{";
      out += "\"count\":" + std::to_string(p.count());
      if (p.count() > 0) {
        out += ",\"mean\":" + json_number(p.mean());
        out += ",\"min\":" + json_number(p.min());
        out += ",\"max\":" + json_number(p.max());
        out += ",\"p50\":" + json_number(p.median());
        out += ",\"p95\":" + json_number(p.p95());
        out += ",\"p99\":" + json_number(p.p99());
        out += ",\"p999\":" + json_number(p.p999());
      }
      out += '}';
    }
    out += '}';
  }

  if (!tables_.empty()) {
    out += ",\"tables\":{";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      if (t != 0) out += ',';
      out += '"' + json_escape(tables_[t].first) + "\":[";
      const auto& rows = tables_[t].second;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r != 0) out += ',';
        out += '{';
        for (std::size_t c = 0; c < rows[r].cells.size(); ++c) {
          if (c != 0) out += ',';
          out += '"' + json_escape(rows[r].cells[c].first) +
                 "\":" + json_number(rows[r].cells[c].second);
        }
        out += '}';
      }
      out += ']';
    }
    out += '}';
  }

  if (!counters_.empty()) {
    out += ",\"counters\":{";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      if (i != 0) out += ',';
      const CounterBlock& b = counters_[i];
      std::string block = snapshot_to_json(b.snap);
      if (b.heap_allocs) {
        block.pop_back();  // reopen the object for one more key
        if (block.size() > 1) block += ',';
        block += "\"heap_allocs\":" + std::to_string(*b.heap_allocs) + '}';
      }
      out += '"' + json_escape(b.label) + "\":" + block;
    }
    out += '}';
  }

  out += '}';
  return out;
}

std::string BenchReport::path() const {
  std::string dir;
  if (const char* env = std::getenv("HPPC_BENCH_DIR")) dir = env;
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + "BENCH_" + name_ + ".json";
}

bool BenchReport::write() const {
  const std::string p = path();
  std::FILE* f = std::fopen(p.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReport: cannot open %s\n", p.c_str());
    return false;
  }
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size()
                  && std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (ok) std::fprintf(stderr, "wrote %s\n", p.c_str());
  return ok;
}

}  // namespace hppc::obs
