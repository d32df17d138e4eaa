// engine_test - small end-to-end runs of every traffic pattern: the engine
// must complete the planned work, verify payload markers, and pass its own
// invariant audit (nothing pinned after teardown, quotas balanced).
#include "scenario/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/spec.h"

namespace vialock::scenario {
namespace {

ScenarioReport run_spec(const std::string& text) {
  const ParseResult parsed = parse_spec(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  ScenarioEngine engine(parsed.spec);
  EXPECT_TRUE(ok(engine.build()));
  EXPECT_TRUE(ok(engine.run()));
  return engine.report();
}

TEST(ScenarioEngine, RpcFanoutCompletesAndAudits) {
  const ScenarioReport r = run_spec(
      "name = t\npattern = rpc-fanout\nhosts = 6\nservers = 2\nfanout = 2\n"
      "tenants_per_host = 1\nops_per_tenant = 8\n");
  // 4 client hosts x 8 ops x 2 targets x (request + response).
  EXPECT_EQ(r.counters.transfers_ok, 128u);
  EXPECT_EQ(r.counters.transfers_failed, 0u);
  EXPECT_EQ(r.counters.rpcs, 32u);
  EXPECT_GT(r.counters.verify_ok, 0u);
  EXPECT_EQ(r.counters.verify_failed, 0u);
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(ScenarioEngine, SkewedKvServesGetsAndPuts) {
  const ScenarioReport r = run_spec(
      "name = t\npattern = skewed-kv\nhosts = 6\nservers = 2\n"
      "tenants_per_host = 2\nops_per_tenant = 16\nskew = 1.2\n"
      "value_bytes = 4096\n");
  EXPECT_EQ(r.counters.kv_gets + r.counters.kv_puts, 8u * 16u);
  EXPECT_EQ(r.counters.transfers_failed, 0u);
  EXPECT_EQ(r.counters.verify_failed, 0u);
  // 4 KB values travel rendezvous: registrations happened beyond churn.
  EXPECT_GT(r.agent_registrations, 0u);
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(ScenarioEngine, PipelineDeliversEveryRecord) {
  const ScenarioReport r = run_spec(
      "name = t\npattern = pipeline\nhosts = 4\nops_per_tenant = 12\n");
  EXPECT_EQ(r.counters.records_delivered, 12u);
  // Each record crosses hosts-1 = 3 hops.
  EXPECT_EQ(r.counters.transfers_ok, 36u);
  EXPECT_EQ(r.counters.verify_failed, 0u);
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(ScenarioEngine, PsAllreduceFoldsEveryRound) {
  const ScenarioReport r = run_spec(
      "name = t\npattern = ps-allreduce\nhosts = 4\nrounds = 3\n"
      "shard_bytes = 4096\n");
  EXPECT_EQ(r.counters.allreduce_rounds, 3u);
  EXPECT_EQ(r.counters.verify_failed, 0u);
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(ScenarioEngine, CollectivesReportsE12Scalars) {
  const ScenarioReport r = run_spec(
      "name = t\npattern = collectives\nhosts = 4\nrounds = 1\n"
      "governor = off\nhost_frames = 2048\n"
      "host_swap_slots = 16384\ntpt_entries = 8192\n");
  EXPECT_GT(r.barrier_ns, 0u);
  EXPECT_GT(r.broadcast_ns, 0u);
  EXPECT_EQ(r.bcast_msgs, 3u);  // binomial tree: N-1 messages
  EXPECT_GT(r.allreduce_ns, 0u);
  EXPECT_GT(r.alltoall_ns, 0u);
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(ScenarioEngine, KvServicePatternServesBothPathsAndSurvivesChurn) {
  // 4 client hosts x 4 connections x 16 ops, a quarter of them rendezvous
  // values, every churn cycle an abrupt abandonment mid-pipeline.
  const ParseResult parsed = parse_spec(
      "name = t\npattern = kv-server\nhosts = 6\nservers = 2\n"
      "tenants_per_host = 2\nops_per_tenant = 16\nkeys = 512\nskew = 1.1\n"
      "value_bytes = 256\nlarge_value_bytes = 4096\nlarge_fraction = 0.25\n"
      "put_fraction = 0.4\nconnections_per_client = 4\npipeline_window = 4\n"
      "conn_churn_per_client = 2\nchurn_abandon_fraction = 1.0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ScenarioEngine engine(parsed.spec);
  ASSERT_TRUE(ok(engine.build()));
  ASSERT_TRUE(ok(engine.run()));
  const ScenarioReport& r = engine.report();
  EXPECT_EQ(r.counters.kv_gets + r.counters.kv_puts, 4u * 4u * 16u);
  EXPECT_EQ(r.counters.transfers_ok, 4u * 4u * 16u);
  EXPECT_EQ(r.counters.transfers_failed, 0u);
  EXPECT_EQ(r.counters.verify_failed, 0u);
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);

  const KvServiceStats& s = engine.kv_service_stats();
  EXPECT_GE(s.conns_accepted, 16u);  // initial conns, plus churn reconnects
  EXPECT_EQ(s.conns_shed, 0u);
  // Every churn cycle was abrupt: the servers detected the vanished peers
  // and reclaimed, and the deliberately dropped requests are accounted as
  // client-side losses, not transfer failures.
  EXPECT_GT(s.conns_abandoned, 0u);
  EXPECT_GT(s.client_requests_lost, 0u);
  // Both data paths moved bytes; the large path skipped the eager copy.
  EXPECT_GT(s.inline_bytes, 0u);
  EXPECT_GT(s.rendezvous_ops, 0u);
  EXPECT_GT(s.rendezvous_bytes, 0u);
  // (rendezvous_failed may be nonzero: abrupt churn abandons connections
  // with staged GETs whose rendezvous write-back finds a broken VI - those
  // requests are deliberate losses, never counted as transfers.)
  // Completion batching was in effect on both sides.
  EXPECT_GT(s.batched_completions, 0u);
  EXPECT_GT(s.batched_replies, 0u);
  EXPECT_GT(s.client_doorbell_flushes, 0u);
  EXPECT_GE(s.peak_open_conns, 1u);
  // Latency tail came out of the histogram in order.
  EXPECT_GT(s.p50_ns, 0u);
  EXPECT_LE(s.p50_ns, s.p99_ns);
  EXPECT_LE(s.p99_ns, s.p999_ns);
}

TEST(ScenarioEngine, KvServiceShedsBestEffortUnderTinyQuota) {
  // One BestEffort server tenant, 12 connection attempts at 1 ring page
  // each against an 8-page quota (each client affords its 4 conns: ring +
  // value window = 2 pages per conn): 8 accepts, the rest shed at the
  // admission probe. The run still completes the work the surviving
  // connections can carry and audits clean.
  const ParseResult parsed = parse_spec(
      "name = t\npattern = kv-server\nhosts = 4\nservers = 1\n"
      "tenants_per_host = 1\nops_per_tenant = 4\nkeys = 16\n"
      "value_bytes = 256\nlarge_value_bytes = 256\nlarge_fraction = 0\n"
      "connections_per_client = 4\npipeline_window = 4\n"
      "tenant_quota_pages = 8\nguaranteed_fraction = 0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ScenarioEngine engine(parsed.spec);
  ASSERT_TRUE(ok(engine.build()));
  ASSERT_TRUE(ok(engine.run()));
  const ScenarioReport& r = engine.report();
  const KvServiceStats& s = engine.kv_service_stats();
  EXPECT_EQ(s.conns_accepted, 8u);
  EXPECT_GT(s.conns_shed, 0u);
  EXPECT_GT(r.counters.transfers_ok, 0u);
  EXPECT_EQ(r.counters.transfers_failed, 0u);
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(ScenarioEngine, ChurnRegistersAndTearsDownClean) {
  const ScenarioReport r = run_spec(
      "name = t\npattern = skewed-kv\nhosts = 4\nservers = 1\n"
      "tenants_per_host = 2\nops_per_tenant = 4\n"
      "churn_regs_per_tenant = 12\nchurn_hold = 3\n");
  EXPECT_EQ(r.counters.registrations_ok, 8u * 12u);
  EXPECT_GT(r.counters.deregistrations, 0u);
  // Teardown releases what the hold-queues still pin; the audit checks
  // pinned_frames() == 0 on every host.
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(ScenarioEngine, ChurnUnderEveryPattern) {
  // Each pattern's teardown runs between the channel/comm byte count and
  // the churn deregistrations; churn must come out balanced under all six.
  const std::string churn =
      "churn_regs_per_tenant = 8\nchurn_hold = 2\nchurn_bytes = 16k\n";
  const std::vector<std::string> specs = {
      "pattern = rpc-fanout\nhosts = 6\nservers = 2\nfanout = 2\n"
      "tenants_per_host = 1\nops_per_tenant = 8\n",
      "pattern = skewed-kv\nhosts = 6\nservers = 2\ntenants_per_host = 2\n"
      "ops_per_tenant = 16\nvalue_bytes = 4096\n",
      "pattern = pipeline\nhosts = 4\nops_per_tenant = 12\n",
      "pattern = ps-allreduce\nhosts = 4\nrounds = 2\nshard_bytes = 4096\n",
      "pattern = collectives\nhosts = 4\nrounds = 1\ngovernor = off\n"
      "host_frames = 2048\nhost_swap_slots = 16384\ntpt_entries = 8192\n",
      "pattern = kv-server\nhosts = 4\nservers = 1\ntenants_per_host = 2\n"
      "ops_per_tenant = 8\nkeys = 64\nvalue_bytes = 256\n"
      "large_value_bytes = 4096\nlarge_fraction = 0.25\n"
      "connections_per_client = 2\npipeline_window = 4\n"
      "conn_churn_per_client = 1\n",
  };
  for (const std::string& body : specs) {
    const ParseResult parsed = parse_spec("name = t\n" + body + churn);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    std::string json[2];
    for (std::string& out : json) {
      ScenarioEngine engine(parsed.spec);
      ASSERT_TRUE(ok(engine.build())) << body;
      ASSERT_TRUE(ok(engine.run())) << body;
      const ScenarioReport& r = engine.report();
      EXPECT_TRUE(r.invariants_ok)
          << body << (r.violations.empty() ? "" : r.violations[0]);
      EXPECT_GT(r.counters.registrations_ok, 0u) << body;
      EXPECT_EQ(r.counters.deregistrations, r.counters.registrations_ok)
          << body;
      out = report_json(parsed.spec, r);
    }
    EXPECT_EQ(json[0], json[1]) << body;
  }
}

TEST(ScenarioEngine, GovernorQuotaRejectsOverCommit) {
  // One-page quota and large churn registrations: admissions must fail,
  // the engine must survive and still audit clean.
  const ScenarioReport r = run_spec(
      "name = t\npattern = skewed-kv\nhosts = 4\nservers = 1\n"
      "tenants_per_host = 1\nops_per_tenant = 2\nvalue_bytes = 256\n"
      "request_bytes = 128\nresponse_bytes = 128\n"
      "tenant_quota_pages = 24\nchurn_regs_per_tenant = 16\n"
      "churn_bytes = 64k\nchurn_hold = 4\n");
  EXPECT_GT(r.counters.registrations_failed, 0u);
  EXPECT_GT(r.governor_rejected, 0u);
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(ScenarioEngine, FaultPlanInjectsAndStaysInvariantClean) {
  const ScenarioReport r = run_spec(
      "name = t\npattern = skewed-kv\nhosts = 6\nservers = 2\n"
      "tenants_per_host = 1\nops_per_tenant = 24\nreliable = on\n"
      "value_bytes = 2048\n"
      "fault = wire drop p=0.05 max=40\n");
  EXPECT_GT(r.faults_injected, 0u);
  // Reliable channels retry dropped frames; the audit tolerates failed
  // transfers only when faults were armed, and still demands clean teardown.
  EXPECT_TRUE(r.invariants_ok) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(ScenarioEngine, ChannelIsCreatedOncePerOrderedPair) {
  // One injected admission refusal: the first channel's slot registration
  // fails, so its setup fails and the next use retries it from scratch.
  const ParseResult parsed = parse_spec(
      "name = t\npattern = pipeline\nhosts = 3\nops_per_tenant = 4\n"
      "fault = pin-admission fail max=1\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ScenarioEngine engine(parsed.spec);
  ASSERT_TRUE(ok(engine.build()));
  EXPECT_EQ(engine.channel(0, 1), nullptr) << "injected admission refusal";
  msg::Channel* const fwd = engine.channel(0, 1);
  ASSERT_NE(fwd, nullptr) << "a failed setup leaves no slot behind";
  EXPECT_EQ(engine.channel(0, 1), fwd);
  msg::Channel* const back = engine.channel(1, 0);
  ASSERT_NE(back, nullptr);
  EXPECT_NE(back, fwd) << "(a,b) and (b,a) are distinct channels";
  EXPECT_EQ(engine.channel(1, 0), back);

  ASSERT_TRUE(ok(engine.run()));
  // (0,1) and (1,0) from above plus the pipeline's own (1,2) hop; the
  // refused attempt is not counted.
  EXPECT_EQ(engine.report().counters.channels_created, 3u);
  EXPECT_TRUE(engine.report().invariants_ok)
      << (engine.report().violations.empty() ? ""
                                             : engine.report().violations[0]);
}

TEST(ScenarioEngine, ReportJsonCarriesAcceptanceScalar) {
  const ParseResult parsed = parse_spec(
      "name = t\npattern = pipeline\nhosts = 3\nops_per_tenant = 4\n");
  ASSERT_TRUE(parsed.ok());
  ScenarioEngine engine(parsed.spec);
  ASSERT_TRUE(ok(engine.build()));
  ASSERT_TRUE(ok(engine.run()));
  const std::string json = report_json(parsed.spec, engine.report());
  EXPECT_NE(json.find("\"registrations_plus_transfers\""), std::string::npos);
  EXPECT_NE(json.find("\"invariants_ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"pattern\": \"pipeline\""), std::string::npos);
}

}  // namespace
}  // namespace vialock::scenario
