// scenario_runner - run a declarative cluster scenario from a spec file.
//
//   scenario_runner --list                 # enumerate bundled specs
//   scenario_runner skewed-kv              # run a bundled spec by name
//   scenario_runner path/to/my.spec        # or any spec file by path
//   scenario_runner skewed-kv hosts=32 seed=7   # with key=value overrides
//
// Flags:
//   --json          write SCENARIO_<name>.json (the canonical report_json)
//   --trace-export  write TRACE_SCENARIO_<name>.json (merged chrome trace)
//   --timeline      sample continuously and write TIMELINE_<name>.json
//                   (with --trace-export: counter overlays in the trace too)
//   --watch         print the sampled timeline as a table after the run
//                   (memory pressure per tick, SLO firings marked)
//   --quiet         suppress the report tables (exit code still meaningful)
//
// Exit code 0 when the run completed with all invariants intact, 1 otherwise.
// Bundled specs live under examples/scenarios/ (SCENARIO_SPEC_DIR at build
// time); see DESIGN.md section 12 for the spec grammar.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/sampler.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "util/table.h"

#ifndef SCENARIO_SPEC_DIR
#define SCENARIO_SPEC_DIR "examples/scenarios"
#endif

namespace {

namespace fs = std::filesystem;
using namespace vialock;            // NOLINT
using namespace vialock::scenario;  // NOLINT

int list_specs() {
  const fs::path dir(SCENARIO_SPEC_DIR);
  if (!fs::is_directory(dir)) {
    std::cerr << "spec directory " << dir << " not found\n";
    return 1;
  }
  std::vector<fs::path> specs;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".spec") specs.push_back(entry.path());
  std::sort(specs.begin(), specs.end());
  std::cout << "bundled scenarios (" << dir.string() << "):\n";
  for (const auto& path : specs) {
    const ParseResult parsed = load_spec_file(path.string());
    if (!parsed.ok()) {
      std::cout << "  " << path.stem().string() << "  [parse error: "
                << parsed.error << "]\n";
      continue;
    }
    std::cout << "  " << summary(parsed.spec) << "\n";
  }
  return specs.empty() ? 1 : 0;
}

/// A bundled name like "skewed-kv" resolves to SCENARIO_SPEC_DIR/<name>.spec;
/// anything that exists on disk is taken verbatim.
std::string resolve_spec(const std::string& arg) {
  if (fs::exists(arg)) return arg;
  const fs::path bundled = fs::path(SCENARIO_SPEC_DIR) / (arg + ".spec");
  if (fs::exists(bundled)) return bundled.string();
  return arg;  // let load_spec_file report the miss
}

void print_report(const ScenarioSpec& spec, const ScenarioReport& r) {
  std::cout << "\n=== scenario " << spec.name << " ("
            << to_string(spec.pattern) << ", " << spec.hosts << " hosts, seed "
            << spec.seed << ") ===\n";
  Table t({"metric", "value"});
  t.row({"events dispatched", Table::num(r.events_dispatched)});
  t.row({"makespan", Table::nanos(r.makespan_ns)});
  t.row({"host busy time", Table::nanos(r.busy_ns)});
  t.row({"transfers ok/failed", Table::num(r.counters.transfers_ok) + " / " +
                                    Table::num(r.counters.transfers_failed)});
  t.row({"bytes moved", Table::bytes(r.counters.bytes_moved)});
  t.row({"registrations (agent)", Table::num(r.agent_registrations)});
  t.row({"deregistrations (agent)", Table::num(r.agent_deregistrations)});
  t.row({"admission rejects", Table::num(r.admission_rejects)});
  t.row({"regs + transfers", Table::num(r.registrations_plus_transfers())});
  t.row({"op latency p50/p99", Table::nanos(r.latency_p50_ns) + " / " +
                                   Table::nanos(r.latency_p99_ns)});
  if (r.faults_injected) t.row({"faults injected", Table::num(r.faults_injected)});
  t.row({"invariants", r.invariants_ok ? "OK" : "VIOLATED"});
  t.print();
  std::cout << "\n--- breakdown ---\n";
  r.breakdown.print();
  for (const auto& v : r.violations)
    std::cout << "violation: " << v << "\n";
}

/// --watch: the sampled timeline as a table, at most ~24 evenly-strided
/// rows so a megatick run stays readable. Shows the memory-pressure gauges
/// (the dynamics the paper's reclaim story cares about) and marks the ticks
/// where an SLO watchdog fired.
void print_watch(const obs::Sampler& sampler) {
  const auto& samples = sampler.samples();
  std::cout << "\n--- timeline (" << sampler.ticks() << " ticks, interval "
            << Table::nanos(sampler.interval()) << ", " << samples.size()
            << " retained) ---\n";
  if (samples.empty()) return;
  Table t({"t", "pinned", "free", "slo"});
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 24);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i % stride != 0 && i + 1 != samples.size()) continue;
    const auto& s = samples[i];
    std::uint64_t pinned = 0, free_frames = 0;
    (void)obs::Sampler::resolve(s.metrics, "simkern.mem.pinned_frames", pinned);
    (void)obs::Sampler::resolve(s.metrics, "simkern.mem.free_frames", free_frames);
    std::string slo;
    for (const auto& f : sampler.firings())
      if (f.when == s.when)
        slo += (slo.empty() ? "" : " ") +
               sampler.rules()[f.rule].metric + "!";
    t.row({Table::nanos(s.when), Table::num(pinned), Table::num(free_frames),
           slo.empty() ? "-" : slo});
  }
  t.print();
  for (const auto& f : sampler.firings())
    std::cout << "slo fired: " << sampler.rules()[f.rule].metric << " at "
              << Table::nanos(f.when) << " (observed " << f.observed << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, trace = false, quiet = false;
  bool timeline = false, watch = false;
  std::string spec_arg;
  std::vector<std::pair<std::string, std::string>> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a == "--list") return list_specs();
    if (a == "--json") { json = true; continue; }
    if (a == "--trace-export") { trace = true; continue; }
    if (a == "--timeline") { timeline = true; continue; }
    if (a == "--watch") { watch = true; continue; }
    if (a == "--quiet") { quiet = true; continue; }
    const auto eq = a.find('=');
    if (eq != std::string::npos && a.rfind("--", 0) != 0) {
      overrides.emplace_back(a.substr(0, eq), a.substr(eq + 1));
      continue;
    }
    if (spec_arg.empty()) { spec_arg = a; continue; }
    std::cerr << "unexpected argument: " << a << "\n";
    return 2;
  }
  if (spec_arg.empty()) {
    std::cerr << "usage: scenario_runner (--list | <spec> [key=value...] "
                 "[--json] [--trace-export] [--timeline] [--watch] "
                 "[--quiet])\n";
    return 2;
  }

  ParseResult parsed = load_spec_file(resolve_spec(spec_arg));
  if (!parsed.ok()) {
    std::cerr << "spec error: " << parsed.error << "\n";
    return 2;
  }
  for (const auto& [key, value] : overrides) {
    const std::string err = parsed.spec.apply(key, value);
    if (!err.empty()) {
      std::cerr << "override " << key << "=" << value << ": " << err << "\n";
      return 2;
    }
  }

  const std::string invalid = parsed.spec.validate();
  if (!invalid.empty()) {
    std::cerr << "spec invalid: " << invalid << "\n";
    return 2;
  }

  ScenarioEngine engine(parsed.spec);
  if (!ok(engine.build())) {
    std::cerr << "scenario build failed\n";
    return 1;
  }
  if (trace) {
    for (std::size_t i = 0; i < engine.cluster().size(); ++i)
      engine.cluster()
          .node(static_cast<vialock::via::NodeId>(i))
          .kernel()
          .spans()
          .enable(true);
  }
  if (timeline || watch) {
    engine.enable_timeline();
    if (trace)
      // Memory-pressure counter overlays next to the spans (chrome trace
      // renders ph "C" events as stacked area charts).
      engine.set_trace_metrics({"simkern.mem.pinned_frames", "simkern.mem.free_frames"});
  }
  if (!ok(engine.run())) {
    std::cerr << "scenario run failed\n";
    return 1;
  }
  const ScenarioReport& report = engine.report();
  if (!quiet) print_report(engine.spec(), report);
  if (json) {
    const std::string path = "SCENARIO_" + engine.spec().name + ".json";
    std::ofstream out(path);
    out << report_json(engine.spec(), report);
    std::cout << "wrote " << path << "\n";
  }
  if (watch && engine.sampler() != nullptr) print_watch(*engine.sampler());
  if (timeline && engine.sampler() != nullptr) {
    const std::string path = "TIMELINE_" + engine.spec().name + ".json";
    std::ofstream out(path);
    out << engine.sampler()->timeline_json(engine.spec().name,
                                           engine.spec().seed);
    std::cout << "wrote " << path << "\n";
  }
  for (std::size_t i = 0; i < engine.flight_dumps().size(); ++i) {
    const auto& [reason, doc] = engine.flight_dumps()[i];
    const std::string path = "FLIGHT_" + engine.spec().name + "_" +
                             std::to_string(i) + ".json";
    std::ofstream out(path);
    out << doc;
    std::cout << "wrote " << path << " (" << reason << ")\n";
  }
  if (trace) {
    std::vector<const obs::SpanRecorder*> recorders;
    for (std::size_t i = 0; i < engine.cluster().size(); ++i)
      recorders.push_back(&engine.cluster()
                               .node(static_cast<vialock::via::NodeId>(i))
                               .kernel()
                               .spans());
    const std::string path = "TRACE_SCENARIO_" + engine.spec().name + ".json";
    std::ofstream out(path);
    const std::string overlay = engine.sampler() != nullptr
                                    ? engine.sampler()->chrome_counter_events()
                                    : std::string();
    out << obs::chrome_trace(recorders, overlay);
    std::cout << "wrote " << path << "\n";
  }
  return report.invariants_ok ? 0 : 1;
}
