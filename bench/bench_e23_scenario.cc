// bench_e23_scenario - Experiment E23: cluster-scale scenario engine.
//
// Drives the declarative scenario subsystem (src/scenario/, DESIGN.md
// section 12) at cluster scale: the bundled cluster-1m.spec - 256 simulated
// hosts, two QoS-classed tenants each, Zipf-skewed KV traffic whose 4 KB
// values travel rendezvous, plus registration-churn actors - for over one
// million registrations + transfers in one deterministic event-driven run.
//
// Reports a hosts x tenants scaling table (virtual makespan, host busy
// time, event and transfer counts) and self-checks the determinism
// contract: the headline spec runs twice and the canonical report_json
// strings must match byte-for-byte. Non-zero exit on divergence or any
// invariant violation, so CI can gate on it (--smoke runs a reduced-scale
// sweep; EXPERIMENTS.md E23 records the full-scale table).
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "util/table.h"

namespace vialock {
namespace {

struct SweepPoint {
  std::uint32_t hosts;
  std::uint32_t ops_per_tenant;
  std::uint32_t churn_regs;
};

scenario::ScenarioSpec sweep_spec(const SweepPoint& p) {
  return bench::load_spec(
      "cluster-1m.spec",
      {{"hosts", std::to_string(p.hosts)},
       {"servers", std::to_string(std::max<std::uint32_t>(2, p.hosts / 16))},
       {"ops_per_tenant", std::to_string(p.ops_per_tenant)},
       {"churn_regs_per_tenant", std::to_string(p.churn_regs)}});
}

/// The determinism contract, enforced: same spec + seed, byte-identical
/// canonical JSON. Returns the (verified) report of the first run.
std::pair<scenario::ScenarioReport, bool> run_twice(
    const scenario::ScenarioSpec& spec) {
  const auto first = bench::run_or_die(spec);
  const auto second = bench::run_or_die(spec);
  const bool identical =
      scenario::report_json(spec, first->report()) ==
      scenario::report_json(spec, second->report());
  return {first->report(), identical};
}

}  // namespace
}  // namespace vialock

int main(int argc, char** argv) {
  using namespace vialock;
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;
  const bench::BenchFlags flags(argc, argv);

  std::cout << "E23: cluster-scale scenario engine "
            << (smoke ? "(smoke: reduced scale)" : "(full scale)") << "\n"
            << "cluster-1m.spec: Zipf-skewed KV + registration churn on an\n"
               "event-driven multi-host scheduler; all times virtual.\n\n";

  const std::vector<SweepPoint> sweep =
      smoke ? std::vector<SweepPoint>{{8, 100, 25}, {16, 100, 25}, {32, 100, 25}}
            : std::vector<SweepPoint>{{32, 200, 50}, {64, 200, 50},
                                      {128, 200, 50}, {256, 200, 50}};

  Table table({"hosts", "tenants", "events", "transfers ok", "regs+transfers",
               "makespan", "host busy", "p99 op lat"});
  for (const SweepPoint& p : sweep) {
    scenario::ScenarioSpec spec = sweep_spec(p);
    const std::uint32_t tenants = p.hosts * spec.tenants_per_host;
    const scenario::ScenarioReport r =
        bench::run_or_die(std::move(spec))->report();
    if (!r.invariants_ok) return 1;
    table.row({Table::num(std::uint64_t{p.hosts}),
               Table::num(std::uint64_t{tenants}),
               Table::num(r.events_dispatched),
               Table::num(r.counters.transfers_ok),
               Table::num(r.registrations_plus_transfers()),
               Table::nanos(r.makespan_ns), Table::nanos(r.busy_ns),
               Table::nanos(r.latency_p99_ns)});
  }
  table.print();

  // Headline run: the shipped spec, twice, byte-compared.
  bench::SpecOverrides smoke_scale;
  if (smoke)
    smoke_scale = {{"hosts", "32"},
                   {"servers", "4"},
                   {"ops_per_tenant", "200"},
                   {"churn_regs_per_tenant", "50"}};
  const scenario::ScenarioSpec headline =
      bench::load_spec("cluster-1m.spec", smoke_scale);
  const auto [r, identical] = run_twice(headline);
  std::cout << "\nheadline (" << headline.hosts << " hosts): "
            << r.registrations_plus_transfers() << " registrations+transfers, "
            << r.events_dispatched << " events, makespan "
            << Table::nanos(r.makespan_ns) << "\n"
            << "same-seed byte-identical report: " << bench::passfail(identical)
            << "\ninvariants: " << bench::passfail(r.invariants_ok) << "\n";

  bench::JsonReport report("E23", "cluster-scale scenario engine");
  report.param("spec", "cluster-1m")
      .param("smoke", smoke ? "yes" : "no")
      .param("hosts", std::uint64_t{headline.hosts})
      .param("tenants_per_host", std::uint64_t{headline.tenants_per_host})
      .param("seed", headline.seed);
  report.metric("registrations_plus_transfers", r.registrations_plus_transfers())
      .metric("transfers_ok", r.counters.transfers_ok)
      .metric("transfers_failed", r.counters.transfers_failed)
      .metric("agent_registrations", r.agent_registrations)
      .metric("events_dispatched", r.events_dispatched)
      .metric("makespan_ns", r.makespan_ns)
      .metric("busy_ns", r.busy_ns)
      .metric("latency_p99_ns", r.latency_p99_ns)
      .metric("deterministic", bench::passfail(identical))
      .metric("invariants", bench::passfail(r.invariants_ok));
  report.add_table("scaling", table);
  report.write_if(flags);

  if (!identical || !r.invariants_ok) return 1;
  return report.compare_if(flags);
}
