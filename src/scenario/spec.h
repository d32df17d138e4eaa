// spec.h - declarative cluster-scale workload specifications.
//
// A ScenarioSpec describes a whole cluster run in one small text file: how
// many simulated hosts, the tenant mix (pinmgr QoS classes and quotas), the
// traffic pattern (RPC fan-out, hot-key-skewed KV, parameter-server
// allreduce, streaming pipeline, collectives), registration-churn rates, and
// a fault schedule. The scenario engine (engine.h) compiles a spec onto the
// existing via::Cluster / msg / mp primitives and runs it on the
// event-driven multi-host scheduler (scheduler.h).
//
// The format is deliberately tiny - `key = value` lines, `#` comments - so
// specs stay reviewable in a PR diff and parse without any library:
//
//   # skewed-kv.spec
//   name     = skewed-kv
//   pattern  = skewed-kv
//   hosts    = 64
//   servers  = 8
//   seed     = 42
//   tenants_per_host = 2
//   ops_per_tenant   = 500
//   skew     = 1.1
//   fault    = wire drop p=0.001
//
// Same spec + same seed => byte-identical reports and trace exports
// (DESIGN.md section 12 states the determinism rules).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "util/clock.h"
#include "via/policy_factory.h"

namespace vialock::scenario {

/// The traffic shapes the engine knows how to compile.
enum class Pattern : std::uint8_t {
  RpcFanout,    ///< clients fan each request out to `fanout` servers
  SkewedKv,     ///< GET/PUT to key-addressed servers, Zipf-skewed keys
  PsAllreduce,  ///< workers push shards to a parameter server (mp::Comm)
  Pipeline,     ///< records stream host 0 -> 1 -> ... -> N-1
  Collectives,  ///< mp::Comm barrier/broadcast/allreduce/alltoall rounds
  KvService,    ///< svc::KvServer/KvClient tier: pipelined, governed, zero-copy
};

[[nodiscard]] constexpr std::string_view to_string(Pattern p) {
  switch (p) {
    case Pattern::RpcFanout: return "rpc-fanout";
    case Pattern::SkewedKv: return "skewed-kv";
    case Pattern::PsAllreduce: return "ps-allreduce";
    case Pattern::Pipeline: return "pipeline";
    case Pattern::Collectives: return "collectives";
    case Pattern::KvService: return "kv-server";
  }
  return "?";
}

/// Online SLO watchdog rule, from a `slo = <metric> <op> <value> [window=K]`
/// line. `metric` is a metric reference the sampler resolves at each tick: a
/// plain snapshot name, or a histogram name suffixed .p50/.p95/.p99/.p999/
/// .count/.sum/.max ("svc.kv.op_ns.p99"). `op` (lt/le/gt/ge, validated at
/// parse time) states what the metric is *required* to satisfy against
/// `threshold`; the engine converts to obs::SloSpec and a violated rule
/// flight-dumps and fails the audit. `window` spaces repeat firings.
struct SloRule {
  std::string metric;
  std::string op = "le";
  std::uint64_t threshold = 0;
  std::uint64_t window = 1;
};

struct ScenarioSpec {
  std::string name = "unnamed";
  Pattern pattern = Pattern::SkewedKv;
  std::uint64_t seed = 1;
  std::uint32_t hosts = 8;

  // --- per-host platform sizing -------------------------------------------------
  std::uint32_t host_frames = 1024;      ///< physical frames per simulated host
  std::uint32_t host_swap_slots = 2048;  ///< swap slots per host
  std::uint32_t tpt_entries = 2048;      ///< NIC TPT entries per host
  std::uint32_t nic_vis = 0;             ///< VI table size (0 = max(256, 2*hosts))
  via::PolicyKind policy = via::PolicyKind::Kiobuf;

  // --- tenant mix (pinmgr) ------------------------------------------------------
  std::uint32_t tenants_per_host = 1;
  std::uint32_t tenant_quota_pages = 512;    ///< per-tenant pin quota
  double guaranteed_fraction = 0.5;          ///< share of tenants Guaranteed
  bool governor = true;                      ///< broker pins through pinmgr

  // --- traffic ------------------------------------------------------------------
  std::uint32_t servers = 4;          ///< rpc/kv: hosts 0..servers-1 serve
  std::uint32_t fanout = 2;           ///< rpc: servers hit per request
  std::uint32_t request_bytes = 512;  ///< rpc request / kv GET request
  std::uint32_t response_bytes = 512; ///< rpc response / kv PUT ack
  std::uint32_t value_bytes = 512;    ///< kv value payload
  double put_fraction = 0.25;         ///< kv: PUT share of ops
  std::uint32_t keys = 4096;          ///< kv keyspace size
  double skew = 1.0;                  ///< kv Zipf exponent (0 = uniform)
  std::uint32_t ops_per_tenant = 64;  ///< rpc/kv ops, pipeline records/source
  std::uint32_t rounds = 4;           ///< ps-allreduce / collectives rounds

  // --- kv-server (svc tier) ----------------------------------------------------
  std::uint32_t connections_per_client = 4;  ///< conns each client host holds
  std::uint32_t pipeline_window = 4;   ///< in-flight requests per connection
  std::uint32_t completion_batch = 32; ///< CQ harvest / doorbell batch depth
  std::uint32_t large_value_bytes = 4096;  ///< rendezvous-path value size
  double large_fraction = 0.25;        ///< share of ops touching large values
  std::uint32_t conn_churn_per_client = 0;  ///< close+reconnect cycles per client
  double churn_abandon_fraction = 0.5; ///< share of churn cycles that are abrupt

  std::uint32_t shard_bytes = 4096;   ///< ps: gradient shard per worker
  std::uint32_t record_bytes = 4096;  ///< pipeline: record size
  Nanos think_ns = 10'000;            ///< per-actor inter-arrival gap

  // --- collectives (E12 compatibility) -----------------------------------------
  std::uint32_t payload_bytes = 64 * 1024;  ///< broadcast payload (<= 64k)
  std::uint32_t allreduce_count = 256;      ///< u64 elements (<= 8192)
  std::uint32_t alltoall_block = 8 * 1024;  ///< per-peer block (>= 8)
  std::uint64_t channel_heap_bytes = 256 * 1024;  ///< per-channel user heap

  // --- registration churn -------------------------------------------------------
  std::uint32_t churn_regs_per_tenant = 0;  ///< registrations issued per tenant
  std::uint32_t churn_bytes = 64 * 1024;    ///< max churn registration size
  std::uint32_t churn_hold = 4;             ///< live registrations held

  // --- transport ---------------------------------------------------------------
  bool reliable = false;  ///< run channels in reliable-delivery mode

  // --- fault schedule -----------------------------------------------------------
  /// Parsed from `fault = <site> <action> [p=..] [after=..] [max=..]
  /// [delay=..] [mask=..] [before=..] [from=..]` lines; the engine arms one
  /// FaultEngine (seeded with `seed`) across the whole cluster when rules
  /// are present.
  std::vector<fault::FaultRule> fault_rules;

  // --- telemetry (obs::Sampler, DESIGN.md section 16) --------------------------
  /// Sampling period in virtual ns; 0 = no interval override (the engine
  /// still samples - at its 1ms default - whenever SLO rules are present or
  /// a timeline export was requested).
  Nanos sample_interval = 0;
  /// Watchdog rules evaluated at every sample tick.
  std::vector<SloRule> slo_rules;

  /// Apply one `key = value` override (what the parser does per line; also
  /// how drivers specialise a bundled spec, e.g. E12 sweeping `hosts`).
  /// Returns an error message, or "" on success.
  [[nodiscard]] std::string apply(std::string_view key, std::string_view value);

  /// Total client-issued operations this spec will attempt (transfers plus
  /// churn registrations), for reports and sanity checks.
  [[nodiscard]] std::uint64_t planned_ops() const;

  /// Spec-level consistency check ("" = valid).
  [[nodiscard]] std::string validate() const;
};

/// Parse a whole spec text. On failure `error` names the offending line.
struct ParseResult {
  ScenarioSpec spec;
  std::string error;  ///< empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

[[nodiscard]] ParseResult parse_spec(std::string_view text);
[[nodiscard]] ParseResult load_spec_file(const std::string& path);

/// One-line summary of a spec (`--list` output of scenario_runner).
[[nodiscard]] std::string summary(const ScenarioSpec& spec);

}  // namespace vialock::scenario
