// obs_integration_test.cc - whole-stack observability checks: every
// subsystem exports through the one registry, and the --metrics / trace
// exports are byte-identical across identical runs.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/locktest.h"
#include "fault/fault.h"
#include "mp/collectives.h"
#include "msg/transport.h"
#include "obs/export.h"
#include "../via/via_util.h"

namespace vialock {
namespace {

/// First dot-segment of a metric name ("via.agent.register_total" -> "via").
std::string subsystem_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// A two-node cluster exercising all seven instrumented subsystems on the
/// sender node: governor admission (pinmgr), channel transfers (msg),
/// collectives over the matching layer (mp), the registration cache (core),
/// agent/NIC work (via), swap traffic (simkern), and an armed fault engine
/// (fault).
struct FullStackRig {
  FullStackRig()
      : n0(cluster.add_node(test::small_node(via::PolicyKind::Kiobuf,
                                             /*frames=*/2048,
                                             /*tpt_entries=*/2048))),
        n1(cluster.add_node(test::small_node(via::PolicyKind::Kiobuf,
                                             /*frames=*/2048,
                                             /*tpt_entries=*/2048))),
        engine(fault::FaultPlan{}, cluster.clock()),
        channel(cluster, n0, n1, config()) {
    cluster.node(n0).enable_governor();
    cluster.inject_faults(&engine);
    if (!ok(channel.init())) std::abort();
    comm = std::make_unique<mp::Comm>(
        cluster, std::vector<via::NodeId>{n0, n1}, mp_config());
    if (!ok(comm->init())) std::abort();
  }

  static msg::Channel::Config config() {
    msg::Channel::Config cfg;
    cfg.user_heap_bytes = 512 * 1024;
    return cfg;
  }

  static mp::Comm::Config mp_config() {
    mp::Comm::Config cfg;
    cfg.heap_bytes = 256 * 1024;  // the small_node RAM hosts channel + comm
    cfg.unexpected_slots = 8;
    return cfg;
  }

  void transfer_some() {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ok(channel.transfer(msg::Protocol::Rendezvous, 0, 0,
                                      48 * 1024)));
      ASSERT_TRUE(ok(channel.transfer(msg::Protocol::Eager, 0, 0, 512)));
    }
  }

  void collect_some() {
    // mp.coll.* counters + the op-latency histogram land on rank 0's (n0's)
    // registry, alongside the comm's "mp.comm" pull source.
    for (mp::Rank r = 0; r < 2; ++r) {
      const std::uint64_t v = 10 + r;
      ASSERT_TRUE(ok(comm->stage(r, 0, test::bytes_of(v))));
    }
    ASSERT_TRUE(ok(mp::barrier(*comm, /*scratch_offset=*/64)));
    ASSERT_TRUE(ok(mp::allreduce_sum(*comm, 0, 1, /*scratch_offset=*/128)));
  }

  simkern::Kernel& kern() { return cluster.node(n0).kernel(); }

  via::Cluster cluster;
  via::NodeId n0, n1;
  fault::FaultEngine engine;
  msg::Channel channel;
  std::unique_ptr<mp::Comm> comm;
};

TEST(ObsIntegration, SevenSubsystemsEachExportAtLeastThreeMetrics) {
  FullStackRig rig;
  rig.transfer_some();
  rig.collect_some();

  std::map<std::string, int> per_subsystem;
  for (const obs::Metric& m : rig.kern().metrics().snapshot()) {
    ++per_subsystem[subsystem_of(m.name)];
  }
  for (const char* subsystem :
       {"simkern", "via", "core", "pinmgr", "msg", "fault", "mp"}) {
    EXPECT_GE(per_subsystem[subsystem], 3) << subsystem;
  }
}

/// `"key": "value"` string field of a one-event-per-line chrome trace line;
/// empty when absent.
std::string field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return {};
  const auto start = pos + pat.size();
  return line.substr(start, line.find('"', start) - start);
}

TEST(ObsIntegration, FlowEventIdsResolveToEmittedSpans) {
  // Real two-host traffic (channel transfers + collectives), both hosts'
  // recorders merged: every flow event ("s"/"t"/"f") in the export must
  // reference a trace id that some emitted span actually carries - the
  // well-formedness contract a chrome-trace viewer relies on to draw the
  // cross-process arrows.
  FullStackRig rig;
  rig.cluster.node(rig.n0).kernel().spans().enable(true);
  rig.cluster.node(rig.n1).kernel().spans().enable(true);
  rig.transfer_some();
  rig.collect_some();

  const std::string trace =
      obs::chrome_trace({&rig.cluster.node(rig.n0).kernel().spans(),
                         &rig.cluster.node(rig.n1).kernel().spans()});
  std::set<std::string> span_traces;
  std::vector<std::pair<std::string, std::string>> flows;  // (ph, id)
  std::istringstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = field(line, "ph");
    if (ph == "X") {
      const std::string t = field(line, "trace");
      if (!t.empty()) span_traces.insert(t);
    } else if (ph == "s" || ph == "t" || ph == "f") {
      flows.emplace_back(ph, field(line, "id"));
    }
  }
  ASSERT_FALSE(flows.empty())
      << "cross-host transfers must stitch at least one flow chain";
  bool saw_start = false, saw_finish = false;
  for (const auto& [ph, id] : flows) {
    EXPECT_TRUE(span_traces.count(id))
      << "flow \"" << ph << "\" references unknown trace " << id;
    saw_start |= ph == "s";
    saw_finish |= ph == "f";
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_finish);
}

/// One instrumented pressure locktest (what `bench_e1_locktest --metrics
/// --trace-export` runs), returning all three export documents.
struct Exports {
  std::string proc_text;
  std::string json;
  std::string trace;
};

Exports run_instrumented_locktest() {
  Clock clock;
  CostModel costs;
  via::Node node(test::small_node(via::PolicyKind::Kiobuf, /*frames=*/1024),
                 clock, costs);
  node.kernel().spans().enable(true);
  experiments::LocktestConfig cfg;
  cfg.region_pages = 64;
  cfg.pressure_factor = 1.5;
  const auto r = experiments::run_locktest(node, cfg);
  EXPECT_TRUE(ok(r.status));
  return {obs::to_proc_text(node.kernel().metrics().snapshot()),
          obs::to_json(node.kernel().metrics().snapshot()),
          obs::chrome_trace(node.kernel().spans())};
}

TEST(ObsIntegration, MetricAndTraceExportsAreByteIdenticalAcrossRuns) {
  const Exports a = run_instrumented_locktest();
  const Exports b = run_instrumented_locktest();
  EXPECT_EQ(a.proc_text, b.proc_text);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.trace, b.trace);
  // The run did real work: registration latency histogram and spans exist.
  EXPECT_NE(a.proc_text.find("via.agent.register_ns.count"),
            std::string::npos);
  EXPECT_NE(a.trace.find("via.register_mem"), std::string::npos);
}

}  // namespace
}  // namespace vialock
