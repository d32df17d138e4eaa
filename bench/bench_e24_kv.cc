// bench_e24_kv - Experiment E24: the zero-copy KV/RPC service tier under
// SLO-gated load.
//
// Drives the svc tier (src/svc/, DESIGN.md section 13) through the scenario
// engine's kv-server pattern with the bundled kv-server.spec: 64 client
// hosts x 16 pipelined connections = 1024 concurrent connections against 16
// governed server tenants, a 25% rendezvous mix, completion batching on both
// sides. The sweep scales connection count and adds two focused variants: a
// pure-rendezvous point that proves the zero-copy claim (every value byte
// moved by RDMA, eager_copies == 0) and an abrupt-churn point that exercises
// mid-pipeline reclamation at scale.
//
// Self-checked gates (non-zero exit so CI can rely on the exit code):
//   - the headline run sustains >= 1024 connections across >= 4 tenants
//     with zero admission sheds and a clean end-of-run invariant audit;
//   - same spec + seed, run twice: byte-identical canonical report AND
//     field-identical KvServiceStats (the svc tier's own counters and
//     latency tail are as deterministic as the frozen report surface);
//   - the pure-rendezvous variant performed zero eager copies.
// Client-visible latency (p50/p95/p99/p999, virtual ns) lands in
// BENCH_E24.json for the --compare regression gate. --smoke shrinks ops and
// the sweep but keeps the full 1024-connection headline.
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "util/table.h"

namespace vialock {
namespace {

struct SweepPoint {
  const char* label;
  std::uint32_t hosts;    // servers stays fixed: conns = (hosts-4) * 16
  double large_fraction;  // 1.0 = the pure-rendezvous zero-copy proof
  std::uint32_t churn;    // conn_churn_per_client
};

struct RunResult {
  scenario::ScenarioReport report;
  scenario::KvServiceStats svc;
};

RunResult run(scenario::ScenarioSpec spec) {
  const auto engine = bench::run_or_die(std::move(spec));
  return {engine->report(), engine->kv_service_stats()};
}

/// The determinism contract for the svc tier: same spec + seed must
/// reproduce both the canonical JSON report and every KvServiceStats field
/// (counters, reclamation totals, the full latency tail). Returns the
/// verified first run.
std::pair<RunResult, bool> run_twice(const scenario::ScenarioSpec& spec) {
  const RunResult first = run(spec);
  const RunResult second = run(spec);
  const bool identical = scenario::report_json(spec, first.report) ==
                             scenario::report_json(spec, second.report) &&
                         first.svc == second.svc;
  return {first, identical};
}

}  // namespace
}  // namespace vialock

int main(int argc, char** argv) {
  using namespace vialock;
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;
  const bench::BenchFlags flags(argc, argv);

  std::cout << "E24: zero-copy KV service tier "
            << (smoke ? "(smoke: reduced ops)" : "(full scale)") << "\n"
            << "kv-server.spec: pipelined connections, governed admission,\n"
               "inline vs rendezvous split, batched completions; all times\n"
               "virtual.\n\n";

  const std::uint32_t ops = smoke ? 6 : 32;
  // hosts-4 client hosts x 16 conns each: 12 -> 128, 20 -> 256, 36 -> 512,
  // 68 -> 1024 connections.
  const std::vector<SweepPoint> sweep =
      smoke ? std::vector<SweepPoint>{{"mixed", 12, 0.25, 0},
                                      {"mixed", 20, 0.25, 0},
                                      {"zero-copy", 12, 1.0, 0},
                                      {"churn", 12, 0.25, 2}}
            : std::vector<SweepPoint>{{"mixed", 20, 0.25, 0},
                                      {"mixed", 36, 0.25, 0},
                                      {"mixed", 68, 0.25, 0},
                                      {"zero-copy", 20, 1.0, 0},
                                      {"churn", 20, 0.25, 2}};

  bool zero_copy_proven = false;
  bool churn_reclaimed = false;
  Table table({"variant", "conns", "tenants", "kv ops", "makespan", "p50",
               "p99", "p999", "inline B", "rdv B", "eager", "abandoned"});
  for (const SweepPoint& p : sweep) {
    scenario::ScenarioSpec spec = bench::load_spec(
        "kv-server.spec",
        {{"hosts", std::to_string(p.hosts)},
         {"ops_per_tenant", std::to_string(ops)},
         {"large_fraction", std::to_string(p.large_fraction)},
         {"conn_churn_per_client", std::to_string(p.churn)}});
    const std::uint32_t tenants = spec.servers * spec.tenants_per_host;
    const RunResult r = run(std::move(spec));
    if (!r.report.invariants_ok) return 1;
    if (std::string(p.label) == "zero-copy")
      zero_copy_proven = r.svc.eager_copies == 0 && r.svc.inline_bytes == 0 &&
                         r.svc.rendezvous_bytes > 0;
    if (p.churn > 0)
      churn_reclaimed = r.svc.conns_abandoned > 0 &&
                        r.svc.client_requests_lost > 0;
    table.row({p.label, Table::num(r.svc.peak_open_conns),
               Table::num(std::uint64_t{tenants}),
               Table::num(r.report.counters.kv_gets +
                          r.report.counters.kv_puts),
               Table::nanos(r.report.makespan_ns), Table::nanos(r.svc.p50_ns),
               Table::nanos(r.svc.p99_ns), Table::nanos(r.svc.p999_ns),
               Table::num(r.svc.inline_bytes),
               Table::num(r.svc.rendezvous_bytes),
               Table::num(r.svc.eager_copies),
               Table::num(r.svc.conns_abandoned)});
  }
  table.print();

  // Headline: the shipped spec (68 hosts, 1024 connections, 16 tenants),
  // twice, byte- and field-compared. Smoke keeps the full connection count
  // and only trims the per-connection op budget.
  bench::SpecOverrides smoke_scale;
  if (smoke) smoke_scale = {{"ops_per_tenant", std::to_string(ops)}};
  const scenario::ScenarioSpec headline =
      bench::load_spec("kv-server.spec", smoke_scale);
  const std::uint32_t want_conns =
      (headline.hosts - headline.servers) * headline.connections_per_client;
  const std::uint32_t tenants = headline.servers * headline.tenants_per_host;
  const auto [r, identical] = run_twice(headline);
  const bool sustained = r.svc.peak_open_conns >= want_conns &&
                         want_conns >= 1024 && tenants >= 4 &&
                         r.svc.conns_shed == 0;

  std::cout << "\nheadline: " << r.svc.peak_open_conns << " concurrent conns, "
            << tenants << " tenants, "
            << (r.report.counters.kv_gets + r.report.counters.kv_puts)
            << " kv ops, makespan " << Table::nanos(r.report.makespan_ns)
            << "\nop latency: p50 " << Table::nanos(r.svc.p50_ns) << "  p95 "
            << Table::nanos(r.svc.p95_ns) << "  p99 "
            << Table::nanos(r.svc.p99_ns) << "  p999 "
            << Table::nanos(r.svc.p999_ns)
            << "\ndata path: " << r.svc.inline_bytes << " inline B, "
            << r.svc.rendezvous_bytes << " rendezvous B, "
            << r.svc.eager_copies << " eager copies\n"
            << "sustained >=1024 conns, zero shed: "
            << bench::passfail(sustained)
            << "\nzero-copy variant skipped every eager copy: "
            << bench::passfail(zero_copy_proven)
            << "\nchurn variant reclaimed abrupt disconnects: "
            << bench::passfail(churn_reclaimed)
            << "\nsame-seed identical report + svc stats: "
            << bench::passfail(identical)
            << "\ninvariants: " << bench::passfail(r.report.invariants_ok)
            << "\n";

  bench::JsonReport report("E24", "zero-copy KV service tier");
  report.param("spec", "kv-server")
      .param("smoke", smoke ? "yes" : "no")
      .param("hosts", std::uint64_t{headline.hosts})
      .param("connections", std::uint64_t{want_conns})
      .param("tenants", std::uint64_t{tenants})
      .param("ops_per_conn", std::uint64_t{headline.ops_per_tenant})
      .param("seed", headline.seed);
  report.metric("peak_open_conns", r.svc.peak_open_conns)
      .metric("conns_accepted", r.svc.conns_accepted)
      .metric("conns_shed", r.svc.conns_shed)
      .metric("conns_abandoned", r.svc.conns_abandoned)
      .metric("kv_ops", r.report.counters.kv_gets + r.report.counters.kv_puts)
      .metric("requests", r.svc.requests)
      .metric("inline_bytes", r.svc.inline_bytes)
      .metric("rendezvous_bytes", r.svc.rendezvous_bytes)
      .metric("rendezvous_ops", r.svc.rendezvous_ops)
      .metric("eager_copies", r.svc.eager_copies)
      .metric("batched_completions", r.svc.batched_completions)
      .metric("batched_replies", r.svc.batched_replies)
      .metric("doorbell_flushes", r.svc.client_doorbell_flushes)
      .metric("p50_ns", r.svc.p50_ns)
      .metric("p95_ns", r.svc.p95_ns)
      .metric("p99_ns", r.svc.p99_ns)
      .metric("p999_ns", r.svc.p999_ns)
      .metric("makespan_ns", r.report.makespan_ns)
      .metric("events_dispatched", r.report.events_dispatched)
      .metric("sustained_1024_conns", bench::passfail(sustained))
      .metric("zero_copy", bench::passfail(zero_copy_proven))
      .metric("deterministic", bench::passfail(identical))
      .metric("invariants", bench::passfail(r.report.invariants_ok));
  report.add_table("scaling", table);
  report.write_if(flags);

  if (!identical || !r.report.invariants_ok || !sustained ||
      !zero_copy_proven || !churn_reclaimed)
    return 1;
  return report.compare_if(flags);
}
