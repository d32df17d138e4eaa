// bench_util.h - shared configuration and formatting for the experiment
// benches. Every binary prints the table(s) of one experiment from
// EXPERIMENTS.md; virtual times come from the simulation's deterministic
// clock, so outputs are exactly reproducible.
//
// With `--json` on the command line, a bench additionally writes
// BENCH_<experiment>.json - machine-readable name/params/tables - so CI can
// archive results as artifacts and diff them across commits.
//
// Two further shared flags expose the observability layer (DESIGN.md
// section 10): `--metrics` prints the node's full metric snapshot as
// /proc/metrics text after the run, and `--trace-export` writes
// TRACE_<experiment>.json, a chrome://tracing / Perfetto-loadable span
// trace of the instrumented run. Both are deterministic: same seed, same
// bytes.
//
// The scenario-driven benches load a bundled spec with load_spec() and run
// it with run_or_die(); both abort with a message on any error.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "util/table.h"
#include "via/node.h"

#ifndef SCENARIO_SPEC_DIR
#define SCENARIO_SPEC_DIR "examples/scenarios"
#endif

namespace vialock::bench {

/// The standard evaluation platform: 16 MB RAM / 64 MB swap / 8k-entry TPT
/// (a 2000-era compute node in miniature; sizes scaled for simulation speed).
inline via::NodeSpec eval_node(via::PolicyKind policy) {
  via::NodeSpec spec;
  spec.kernel.frames = 4096;
  spec.kernel.reserved_low = 16;
  spec.kernel.swap_slots = 16384;
  spec.kernel.free_pages_min = 16;
  spec.kernel.swap_cluster = 32;
  spec.nic.tpt_entries = 8192;
  spec.policy = policy;
  return spec;
}

inline std::string yesno(bool b) { return b ? "yes" : "NO"; }
inline std::string passfail(bool b) { return b ? "PASS" : "FAIL"; }

/// Spec key overrides, applied in order.
using SpecOverrides = std::vector<std::pair<std::string, std::string>>;

/// The bundled scenario spec `file` (e.g. "cluster-1m.spec") with
/// `overrides` applied. Aborts on a parse error or a rejected override.
inline scenario::ScenarioSpec load_spec(const std::string& file,
                                        const SpecOverrides& overrides = {}) {
  scenario::ParseResult parsed =
      scenario::load_spec_file(std::string(SCENARIO_SPEC_DIR) + "/" + file);
  if (!parsed.ok()) {
    std::cerr << "spec error: " << parsed.error << "\n";
    std::abort();
  }
  for (const auto& [key, value] : overrides) {
    const std::string err = parsed.spec.apply(key, value);
    if (!err.empty()) {
      std::cerr << "override " << key << "=" << value << ": " << err << "\n";
      std::abort();
    }
  }
  return std::move(parsed.spec);
}

/// Build and run `spec`, aborting if either step fails. Invariant violations
/// are echoed to stderr; the engine is returned for report() and the
/// per-pattern stats.
inline std::unique_ptr<scenario::ScenarioEngine> run_or_die(
    scenario::ScenarioSpec spec) {
  auto engine = std::make_unique<scenario::ScenarioEngine>(std::move(spec));
  if (!ok(engine->build()) || !ok(engine->run())) {
    std::cerr << "scenario failed to build/run\n";
    std::abort();
  }
  for (const auto& v : engine->report().violations)
    std::cerr << "violation: " << v << "\n";
  return engine;
}

/// One pass over argv for the flags every bench shares: `--json`,
/// `--metrics`, `--trace-export`, `--compare <baseline>` (or
/// `--compare=<baseline>`) and `--compare-threshold=<f>`. Benches parse
/// once up front and hand the result to JsonReport::write_if /
/// JsonReport::compare_if and ObsFlags instead of each helper re-scanning
/// the argument list.
struct BenchFlags {
  bool json = false;
  bool metrics = false;
  bool trace = false;
  std::string compare_path;
  double compare_threshold = 0.10;

  BenchFlags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a(argv[i]);
      if (a == "--json") {
        json = true;
      } else if (a == "--metrics") {
        metrics = true;
      } else if (a == "--trace-export") {
        trace = true;
      } else if (a == "--compare" && i + 1 < argc) {
        compare_path = argv[++i];
      } else if (a.rfind("--compare=", 0) == 0) {
        compare_path = a.substr(10);
      } else if (a.rfind("--compare-threshold=", 0) == 0) {
        compare_threshold = std::stod(a.substr(20));
      }
    }
  }

  [[nodiscard]] bool obs_any() const { return metrics || trace; }
};

/// Machine-readable experiment output. Collects the experiment's parameters,
/// scalar metrics, and printed tables, and - when the binary was invoked with
/// `--json` - writes them to BENCH_<experiment>.json in the working
/// directory. All values come from the virtual clock, so the file is
/// byte-identical across runs.
class JsonReport {
 public:
  JsonReport(std::string experiment, std::string name)
      : experiment_(std::move(experiment)), name_(std::move(name)) {}

  JsonReport& param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, obs::json_quote(value));
    return *this;
  }
  JsonReport& param(const std::string& key, std::uint64_t value) {
    params_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& metric(const std::string& key, std::uint64_t value) {
    metrics_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& metric(const std::string& key, double value) {
    std::ostringstream ss;
    ss << value;
    metrics_.emplace_back(key, ss.str());
    return *this;
  }
  JsonReport& metric(const std::string& key, const std::string& value) {
    metrics_.emplace_back(key, obs::json_quote(value));
    return *this;
  }

  /// Capture a printed table (headers + string cells) under `label`.
  JsonReport& add_table(const std::string& label, const Table& table) {
    tables_.emplace_back(label, render(table));
    return *this;
  }

  /// Regression gate: with `--compare <baseline.json>` (a BENCH_*.json from
  /// an earlier run, e.g. the previous CI build's artifact) the report's
  /// scalar metrics are diffed against the baseline's. A numeric metric
  /// regresses when its relative delta |cur - base| / base exceeds the
  /// threshold (default 0.10, override with --compare-threshold=<f>); a
  /// string metric regresses when it changed at all (PASS -> FAIL). A
  /// baseline without scalar metrics is gated on its tables instead, which
  /// must match exactly. Returns the process exit code: 0 when clean, not
  /// requested, or the baseline is missing (first run); 1 on regression.
  [[nodiscard]] int compare_if(const BenchFlags& flags) const {
    return compare(flags.compare_path, flags.compare_threshold);
  }

  [[nodiscard]] int compare(const std::string& path, double threshold) const {
    if (path.empty()) return 0;
    std::ifstream in(path);
    if (!in) {
      std::cout << "\ncompare: baseline " << path
                << " not readable - skipping (first run?)\n";
      return 0;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const Fields baseline = parse_metrics_object(buf.str());
    if (baseline.empty()) {
      const bool same = tables_of(buf.str()) == tables_of(json());
      std::cout << "\ncompare: no scalar metrics in " << path << "; tables "
                << (same ? "match\n" : "DIFFER\n");
      return same ? 0 : 1;
    }
    std::cout << "\n=== compare vs " << path << " (threshold "
              << threshold * 100 << "%) ===\n";
    int regressions = 0;
    for (const auto& [key, base] : baseline) {
      const std::string* cur = nullptr;
      for (const auto& [k, v] : metrics_)
        if (k == key) cur = &v;
      if (!cur) {
        std::cout << "  " << key << ": missing in current run (baseline "
                  << base << ")\n";
        continue;
      }
      const bool base_num = !base.empty() && base.front() != '"';
      const bool cur_num = !cur->empty() && cur->front() != '"';
      if (base_num && cur_num) {
        const double b = std::stod(base);
        const double c = std::stod(*cur);
        const double delta =
            b != 0.0 ? (c - b) / b : (c == 0.0 ? 0.0 : 1.0);
        const bool bad = delta > threshold || delta < -threshold;
        std::cout << "  " << key << ": " << base << " -> " << *cur << " ("
                  << (delta >= 0 ? "+" : "") << delta * 100 << "%)"
                  << (bad ? "  REGRESSION" : "") << "\n";
        if (bad) ++regressions;
      } else {
        const bool bad = base != *cur;
        std::cout << "  " << key << ": " << base << " -> " << *cur
                  << (bad ? "  CHANGED" : "") << "\n";
        if (bad) ++regressions;
      }
    }
    if (regressions) {
      std::cout << "compare: " << regressions
                << " metric(s) regressed beyond the threshold\n";
      return 1;
    }
    std::cout << "compare: OK\n";
    return 0;
  }

  /// Write BENCH_<experiment>.json if `--json` was requested. Returns true
  /// when the file was written.
  bool write_if(const BenchFlags& flags) const {
    if (!flags.json) return false;
    std::ofstream out("BENCH_" + experiment_ + ".json");
    out << json();
    return out.good();
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  /// The report as write_if writes it.
  [[nodiscard]] std::string json() const {
    std::string out = "{\n  \"experiment\": " + obs::json_quote(experiment_) +
                      ",\n  \"name\": " + obs::json_quote(name_) +
                      ",\n  \"params\": " + object(params_) +
                      ",\n  \"metrics\": " + object(metrics_) +
                      ",\n  \"tables\": {";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      out += (i ? ",\n    " : "\n    ") + obs::json_quote(tables_[i].first) +
             ": " + tables_[i].second;
    }
    return out + (tables_.empty() ? "" : "\n  ") + "}\n}\n";
  }

  /// Everything from the `"tables"` key on (empty when there is none).
  static std::string tables_of(const std::string& json) {
    const auto at = json.find("\"tables\": ");
    return at == std::string::npos ? std::string() : json.substr(at);
  }

  /// Pull the `"metrics": {...}` object back out of a BENCH_*.json we wrote
  /// earlier. The format is our own (flat object, scalar values, no commas
  /// or braces inside strings), so a line scanner is all the parser needed.
  static Fields parse_metrics_object(const std::string& json) {
    Fields out;
    const auto at = json.find("\"metrics\": {");
    if (at == std::string::npos) return out;
    std::size_t i = at + 12;
    const auto end = json.find('}', i);
    if (end == std::string::npos) return out;
    while (i < end) {
      const auto kq = json.find('"', i);
      if (kq == std::string::npos || kq >= end) break;
      const auto kend = json.find('"', kq + 1);
      if (kend == std::string::npos || kend >= end) break;
      const std::string key = json.substr(kq + 1, kend - kq - 1);
      auto vstart = json.find(':', kend);
      if (vstart == std::string::npos || vstart >= end) break;
      ++vstart;
      while (vstart < end && json[vstart] == ' ') ++vstart;
      auto vend = json.find(',', vstart);
      if (vend == std::string::npos || vend > end) vend = end;
      std::string value = json.substr(vstart, vend - vstart);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\n'))
        value.pop_back();
      out.emplace_back(key, value);
      i = vend + 1;
    }
    return out;
  }

  static std::string object(const Fields& fields) {
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out += (i ? ", " : "") + obs::json_quote(fields[i].first) + ": " +
             fields[i].second;
    }
    return out + "}";
  }
  /// A table as {"headers": [...], "rows": [[...], ...]} of strings.
  static std::string render(const Table& table) {
    std::string out = "{\"headers\": " + cells(table.headers()) +
                      ", \"rows\": [";
    const auto& rows = table.rows();
    for (std::size_t i = 0; i < rows.size(); ++i)
      out += (i ? ", " : "") + cells(rows[i]);
    return out + "]}";
  }
  static std::string cells(const std::vector<std::string>& row) {
    std::string out = "[";
    for (std::size_t i = 0; i < row.size(); ++i)
      out += (i ? ", " : "") + obs::json_quote(row[i]);
    return out + "]";
  }

  std::string experiment_;
  std::string name_;
  Fields params_;
  Fields metrics_;
  std::vector<std::pair<std::string, std::string>> tables_;
};

/// The shared `--metrics` / `--trace-export` handling: take the pre-parsed
/// flags, arm span recording on the instrumented node, render the exports.
///
///   const bench::BenchFlags flags(argc, argv);
///   const bench::ObsFlags obs(flags);
///   if (obs.any()) {
///     via::Node node(...);        // a dedicated instrumented pass
///     obs.arm(node.kernel());     // BEFORE the workload (spans off by default)
///     ... run the workload ...
///     obs.finish("E1", node.kernel());
///   }
class ObsFlags {
 public:
  explicit ObsFlags(const BenchFlags& flags)
      : metrics_(flags.metrics), trace_(flags.trace) {}

  [[nodiscard]] bool metrics() const { return metrics_; }
  [[nodiscard]] bool trace() const { return trace_; }
  [[nodiscard]] bool any() const { return metrics_ || trace_; }

  /// Enable span recording on `kern` (needed before the workload runs when
  /// --trace-export is set; spans are off by default to keep runs cheap).
  void arm(simkern::Kernel& kern) const {
    if (trace_) kern.spans().enable(true);
  }

  /// Arm every node of a cluster: the merged export then stitches the
  /// per-host recorders into one trace with cross-host flow arrows.
  void arm(via::Cluster& cluster) const {
    for (std::size_t i = 0; i < cluster.size(); ++i)
      arm(cluster.node(static_cast<via::NodeId>(i)).kernel());
  }

  /// Print the metric snapshot (--metrics) and write TRACE_<experiment>.json
  /// (--trace-export) from `kern`'s registry and span recorder.
  void finish(const std::string& experiment, simkern::Kernel& kern) const {
    if (metrics_) {
      std::cout << "\n=== /proc/metrics (" << experiment
                << " instrumented run) ===\n"
                << obs::to_proc_text(kern.metrics().snapshot());
    }
    if (trace_) {
      const std::string path = "TRACE_" + experiment + ".json";
      std::ofstream out(path);
      out << obs::chrome_trace(kern.spans());
      std::cout << "\nwrote " << path
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
  }

  /// Cluster-wide finish: one metric snapshot per node, and a single merged
  /// chrome trace (one pid per host) whose flow events connect the causal
  /// chains that cross the fabric (DESIGN.md section 11).
  void finish(const std::string& experiment, via::Cluster& cluster) const {
    if (metrics_) {
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        std::cout << "\n=== /proc/metrics (" << experiment << " node " << i
                  << ") ===\n"
                  << obs::to_proc_text(
                         cluster.node(static_cast<via::NodeId>(i))
                             .kernel()
                             .metrics()
                             .snapshot());
      }
    }
    if (trace_) {
      std::vector<const obs::SpanRecorder*> recorders;
      for (std::size_t i = 0; i < cluster.size(); ++i)
        recorders.push_back(
            &cluster.node(static_cast<via::NodeId>(i)).kernel().spans());
      const std::string path = "TRACE_" + experiment + ".json";
      std::ofstream out(path);
      out << obs::chrome_trace(recorders);
      std::cout << "\nwrote " << path << " (" << recorders.size()
                << " hosts merged; load in chrome://tracing or "
                   "ui.perfetto.dev)\n";
    }
  }

 private:
  bool metrics_ = false;
  bool trace_ = false;
};

}  // namespace vialock::bench
