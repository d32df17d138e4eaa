// spec_test - the scenario spec grammar: key=value parsing, comments, byte
// suffixes, fault-rule lines, overrides, and validation.
#include "scenario/spec.h"

#include <gtest/gtest.h>

namespace vialock::scenario {
namespace {

TEST(ScenarioSpec, ParsesFullSpec) {
  const auto result = parse_spec(R"(
# a comment line
name     = demo          # trailing comment
pattern  = skewed-kv
hosts    = 64
servers  = 8
seed     = 7
tenants_per_host = 2
ops_per_tenant   = 500
value_bytes = 4k
channel_heap_bytes = 1m
skew     = 1.1
reliable = on
governor = off
)");
  ASSERT_TRUE(result.ok()) << result.error;
  const ScenarioSpec& spec = result.spec;
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.pattern, Pattern::SkewedKv);
  EXPECT_EQ(spec.hosts, 64u);
  EXPECT_EQ(spec.servers, 8u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.tenants_per_host, 2u);
  EXPECT_EQ(spec.ops_per_tenant, 500u);
  EXPECT_EQ(spec.value_bytes, 4096u);
  EXPECT_EQ(spec.channel_heap_bytes, 1024u * 1024u);
  EXPECT_DOUBLE_EQ(spec.skew, 1.1);
  EXPECT_TRUE(spec.reliable);
  EXPECT_FALSE(spec.governor);
}

TEST(ScenarioSpec, PatternNamesAndUnderscoreAlias) {
  ScenarioSpec spec;
  EXPECT_EQ(spec.apply("pattern", "rpc-fanout"), "");
  EXPECT_EQ(spec.pattern, Pattern::RpcFanout);
  EXPECT_EQ(spec.apply("pattern", "ps_allreduce"), "");
  EXPECT_EQ(spec.pattern, Pattern::PsAllreduce);
  EXPECT_NE(spec.apply("pattern", "nonsense"), "");
}

TEST(ScenarioSpec, FaultRuleLine) {
  const auto result = parse_spec(
      "name = chaos\n"
      "hosts = 4\n"
      "servers = 2\n"
      "fault = wire drop p=0.01 max=200 after=10\n"
      "fault = tpt-write fail p=0.5\n");
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.spec.fault_rules.size(), 2u);
  const fault::FaultRule& wire = result.spec.fault_rules[0];
  EXPECT_EQ(wire.site, fault::FaultSite::Wire);
  EXPECT_EQ(wire.action, fault::FaultAction::Drop);
  EXPECT_DOUBLE_EQ(wire.probability, 0.01);
  EXPECT_EQ(wire.max_triggers, 200u);
  EXPECT_EQ(wire.after_events, 10u);
  EXPECT_EQ(result.spec.fault_rules[1].site, fault::FaultSite::TptWrite);
  EXPECT_EQ(result.spec.fault_rules[1].action, fault::FaultAction::Fail);
}

TEST(ScenarioSpec, RejectsBadInput) {
  EXPECT_FALSE(parse_spec("hosts = banana\n").ok());
  EXPECT_FALSE(parse_spec("mystery_key = 1\n").ok());
  EXPECT_FALSE(parse_spec("no equals sign here\n").ok());
  EXPECT_FALSE(parse_spec("fault = nowhere drop\n").ok());
  EXPECT_FALSE(parse_spec("mesh_eager_channels = on\n").ok());
  EXPECT_FALSE(parse_spec("lazy_dereg_batch = 8\n").ok());
  EXPECT_FALSE(parse_spec("guaranteed_reserve = 64\n").ok());
  // Parse errors name the offending line.
  const auto bad = parse_spec("hosts = 4\nservers = x\n");
  EXPECT_NE(bad.error.find("line 2"), std::string::npos) << bad.error;
}

TEST(ScenarioSpec, ThreadsOneIsAcceptedAsANoOp) {
  // Drivers that pin the serial executor (`threads = 1`) keep parsing.
  const auto result = parse_spec("hosts = 8\nthreads = 1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  ScenarioSpec spec;
  EXPECT_EQ(spec.apply("threads", "1"), "");
}

TEST(ScenarioSpec, ThreadsAboveOneIsRejected) {
  // Any other value is a line-numbered error naming the removal.
  const auto result = parse_spec("hosts = 8\nthreads = 4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("line 2"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("threaded execution was removed"),
            std::string::npos)
      << result.error;
  ScenarioSpec spec;
  EXPECT_NE(spec.apply("threads", "8").find("threaded execution was removed"),
            std::string::npos);
  EXPECT_NE(spec.apply("threads", "0"), "");
}

TEST(ScenarioSpec, ValidateCatchesInconsistency) {
  ScenarioSpec spec;
  spec.pattern = Pattern::SkewedKv;
  spec.hosts = 4;
  spec.servers = 4;  // no client host left
  EXPECT_NE(spec.validate(), "");
  spec.servers = 2;
  EXPECT_EQ(spec.validate(), "");

  spec.pattern = Pattern::RpcFanout;
  spec.fanout = 3;  // > servers
  EXPECT_NE(spec.validate(), "");
  spec.fanout = 2;
  EXPECT_EQ(spec.validate(), "");

  spec.hosts = 1;
  EXPECT_NE(spec.validate(), "");

  // The collectives rank-heap layout bounds its payloads.
  spec.pattern = Pattern::Collectives;
  spec.hosts = 4;
  EXPECT_EQ(spec.validate(), "");
  spec.payload_bytes = 64 * 1024 + 1;
  EXPECT_NE(spec.validate(), "");
  spec.payload_bytes = 64 * 1024;
  spec.alltoall_block = 4;
  EXPECT_NE(spec.validate(), "");
}

TEST(ScenarioSpec, OverridesAfterParse) {
  auto result = parse_spec("name = s\npattern = pipeline\nhosts = 4\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.spec.apply("hosts", "16"), "");
  EXPECT_EQ(result.spec.hosts, 16u);
  EXPECT_NE(result.spec.apply("hosts", "-3"), "");
}

TEST(ScenarioSpec, PlannedOpsScalesWithTopology) {
  ScenarioSpec spec;
  spec.pattern = Pattern::SkewedKv;
  spec.hosts = 10;
  spec.servers = 2;
  spec.tenants_per_host = 2;
  spec.ops_per_tenant = 100;
  // 8 client hosts x 2 tenants x 100 ops x 2 transfers.
  EXPECT_EQ(spec.planned_ops(), 3200u);
  spec.churn_regs_per_tenant = 10;
  EXPECT_EQ(spec.planned_ops(), 3200u + 10u * 20u);
}

TEST(ScenarioSpec, SummaryNamesTheSpec) {
  ScenarioSpec spec;
  spec.name = "demo";
  const std::string s = summary(spec);
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("skewed-kv"), std::string::npos);
}

}  // namespace
}  // namespace vialock::scenario
