#include "scenario/spec.h"

#include <array>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace vialock::scenario {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

bool parse_u32(std::string_view v, std::uint32_t& out) {
  std::uint64_t wide = 0;
  if (v.empty()) return false;
  for (const char c : v) {
    if (c < '0' || c > '9') return false;
    wide = wide * 10 + static_cast<std::uint64_t>(c - '0');
    if (wide > UINT32_MAX) return false;
  }
  out = static_cast<std::uint32_t>(wide);
  return true;
}

bool parse_u64(std::string_view v, std::uint64_t& out) {
  if (v.empty()) return false;
  out = 0;
  for (const char c : v) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

bool parse_f64(std::string_view v, double& out) {
  const std::string s(v);
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end && *end == '\0' && !s.empty();
}

bool parse_bool(std::string_view v, bool& out) {
  if (v == "on" || v == "true" || v == "yes" || v == "1") return out = true, true;
  if (v == "off" || v == "false" || v == "no" || v == "0")
    return out = false, true;
  return false;
}

/// Sizes accept a k/m suffix (KiB/MiB): `64k`, `2m`, `4096`.
bool parse_bytes(std::string_view v, std::uint64_t& out) {
  std::uint64_t mult = 1;
  if (!v.empty() && (v.back() == 'k' || v.back() == 'K')) {
    mult = 1024;
    v.remove_suffix(1);
  } else if (!v.empty() && (v.back() == 'm' || v.back() == 'M')) {
    mult = 1024 * 1024;
    v.remove_suffix(1);
  }
  if (!parse_u64(v, out)) return false;
  out *= mult;
  return true;
}

bool parse_bytes32(std::string_view v, std::uint32_t& out) {
  std::uint64_t wide = 0;
  if (!parse_bytes(v, wide) || wide > UINT32_MAX) return false;
  out = static_cast<std::uint32_t>(wide);
  return true;
}

bool parse_pattern(std::string_view v, Pattern& out) {
  constexpr std::array<Pattern, 6> all = {
      Pattern::RpcFanout, Pattern::SkewedKv,  Pattern::PsAllreduce,
      Pattern::Pipeline,  Pattern::Collectives, Pattern::KvService};
  for (const Pattern p : all) {
    if (v == to_string(p)) {
      out = p;
      return true;
    }
  }
  // Underscore spelling tolerated (rpc_fanout == rpc-fanout).
  std::string dashed(v);
  for (char& c : dashed)
    if (c == '_') c = '-';
  for (const Pattern p : all) {
    if (dashed == to_string(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

bool parse_policy(std::string_view v, via::PolicyKind& out) {
  struct Name {
    std::string_view name;
    via::PolicyKind kind;
  };
  constexpr std::array<Name, 5> names = {
      Name{"refcount", via::PolicyKind::Refcount},
      Name{"pageflag", via::PolicyKind::PageFlag},
      Name{"mlock", via::PolicyKind::Mlock},
      Name{"mlock-track", via::PolicyKind::MlockTracked},
      Name{"kiobuf", via::PolicyKind::Kiobuf}};
  for (const auto& n : names) {
    if (v == n.name) {
      out = n.kind;
      return true;
    }
  }
  return false;
}

bool parse_site(std::string_view v, fault::FaultSite& out) {
  for (std::size_t i = 0; i < fault::kNumFaultSites; ++i) {
    const auto s = static_cast<fault::FaultSite>(i);
    if (v == fault::to_string(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

bool parse_action(std::string_view v, fault::FaultAction& out) {
  constexpr std::array<fault::FaultAction, 4> all = {
      fault::FaultAction::Fail, fault::FaultAction::Delay,
      fault::FaultAction::Corrupt, fault::FaultAction::Drop};
  for (const fault::FaultAction a : all) {
    if (v == fault::to_string(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

/// `fault = <site> <action> [p=0.01] [after=100] [max=5] [delay=50000]
///  [mask=255] [before=ns] [from=ns]`
std::string parse_fault_rule(std::string_view value, fault::FaultRule& rule) {
  std::istringstream in{std::string(value)};
  std::string site, action;
  in >> site >> action;
  if (!parse_site(site, rule.site)) return "unknown fault site '" + site + "'";
  if (!parse_action(action, rule.action))
    return "unknown fault action '" + action + "'";
  std::string opt;
  while (in >> opt) {
    const auto eq = opt.find('=');
    if (eq == std::string::npos) return "malformed fault option '" + opt + "'";
    const std::string_view k = std::string_view(opt).substr(0, eq);
    const std::string_view v = std::string_view(opt).substr(eq + 1);
    if (k == "p") {
      if (!parse_f64(v, rule.probability)) return "bad fault p= value";
    } else if (k == "after") {
      if (!parse_u64(v, rule.after_events)) return "bad fault after= value";
    } else if (k == "max") {
      if (!parse_u64(v, rule.max_triggers)) return "bad fault max= value";
    } else if (k == "delay") {
      if (!parse_u64(v, rule.delay)) return "bad fault delay= value";
    } else if (k == "mask") {
      if (!parse_u64(v, rule.corrupt_mask)) return "bad fault mask= value";
    } else if (k == "from") {
      if (!parse_u64(v, rule.not_before)) return "bad fault from= value";
    } else if (k == "before") {
      if (!parse_u64(v, rule.not_after)) return "bad fault before= value";
    } else {
      return "unknown fault option '" + std::string(k) + "'";
    }
  }
  return "";
}

/// `slo = <metric> <op> <value> [window=4]`
std::string parse_slo_rule(std::string_view value, SloRule& rule) {
  std::istringstream in{std::string(value)};
  std::string metric, op, threshold;
  in >> metric >> op >> threshold;
  if (metric.empty() || op.empty() || threshold.empty())
    return "slo rule needs '<metric> <op> <value>'";
  if (op != "lt" && op != "le" && op != "gt" && op != "ge")
    return "unknown slo operator '" + op + "'";
  if (!parse_u64(threshold, rule.threshold))
    return "bad slo threshold value '" + threshold + "'";
  rule.metric = metric;
  rule.op = op;
  std::string opt;
  while (in >> opt) {
    const auto eq = opt.find('=');
    if (eq == std::string::npos) return "malformed slo option '" + opt + "'";
    const std::string_view k = std::string_view(opt).substr(0, eq);
    const std::string_view v = std::string_view(opt).substr(eq + 1);
    if (k == "window") {
      if (!parse_u64(v, rule.window) || rule.window == 0)
        return "slo window must be >= 1";
    } else {
      return "unknown slo option '" + std::string(k) + "'";
    }
  }
  return "";
}

}  // namespace

std::string ScenarioSpec::apply(std::string_view key, std::string_view value) {
  const auto bad = [&](std::string_view what) {
    return "bad " + std::string(what) + " value '" + std::string(value) + "'";
  };
  if (key == "name") {
    name = std::string(value);
  } else if (key == "pattern") {
    if (!parse_pattern(value, pattern)) return bad("pattern");
  } else if (key == "seed") {
    if (!parse_u64(value, seed)) return bad("seed");
  } else if (key == "hosts") {
    if (!parse_u32(value, hosts)) return bad("hosts");
  } else if (key == "threads") {
    // Kept so specs and drivers that pin the serial value still parse.
    if (value != "1")
      return "bad threads value '" + std::string(value) +
             "': threaded execution was removed; only 1 is accepted";
  } else if (key == "host_frames") {
    if (!parse_u32(value, host_frames)) return bad("host_frames");
  } else if (key == "host_swap_slots") {
    if (!parse_u32(value, host_swap_slots)) return bad("host_swap_slots");
  } else if (key == "tpt_entries") {
    if (!parse_u32(value, tpt_entries)) return bad("tpt_entries");
  } else if (key == "nic_vis") {
    if (!parse_u32(value, nic_vis)) return bad("nic_vis");
  } else if (key == "policy") {
    if (!parse_policy(value, policy)) return bad("policy");
  } else if (key == "tenants_per_host") {
    if (!parse_u32(value, tenants_per_host)) return bad("tenants_per_host");
  } else if (key == "tenant_quota_pages") {
    if (!parse_u32(value, tenant_quota_pages)) return bad("tenant_quota_pages");
  } else if (key == "guaranteed_fraction") {
    if (!parse_f64(value, guaranteed_fraction)) return bad("guaranteed_fraction");
  } else if (key == "governor") {
    if (!parse_bool(value, governor)) return bad("governor");
  } else if (key == "servers") {
    if (!parse_u32(value, servers)) return bad("servers");
  } else if (key == "fanout") {
    if (!parse_u32(value, fanout)) return bad("fanout");
  } else if (key == "request_bytes") {
    if (!parse_bytes32(value, request_bytes)) return bad("request_bytes");
  } else if (key == "response_bytes") {
    if (!parse_bytes32(value, response_bytes)) return bad("response_bytes");
  } else if (key == "value_bytes") {
    if (!parse_bytes32(value, value_bytes)) return bad("value_bytes");
  } else if (key == "put_fraction") {
    if (!parse_f64(value, put_fraction)) return bad("put_fraction");
  } else if (key == "keys") {
    if (!parse_u32(value, keys)) return bad("keys");
  } else if (key == "skew") {
    if (!parse_f64(value, skew)) return bad("skew");
  } else if (key == "ops_per_tenant") {
    if (!parse_u32(value, ops_per_tenant)) return bad("ops_per_tenant");
  } else if (key == "rounds") {
    if (!parse_u32(value, rounds)) return bad("rounds");
  } else if (key == "connections_per_client") {
    if (!parse_u32(value, connections_per_client))
      return bad("connections_per_client");
  } else if (key == "pipeline_window") {
    if (!parse_u32(value, pipeline_window)) return bad("pipeline_window");
  } else if (key == "completion_batch") {
    if (!parse_u32(value, completion_batch)) return bad("completion_batch");
  } else if (key == "large_value_bytes") {
    if (!parse_bytes32(value, large_value_bytes))
      return bad("large_value_bytes");
  } else if (key == "large_fraction") {
    if (!parse_f64(value, large_fraction)) return bad("large_fraction");
  } else if (key == "conn_churn_per_client") {
    if (!parse_u32(value, conn_churn_per_client))
      return bad("conn_churn_per_client");
  } else if (key == "churn_abandon_fraction") {
    if (!parse_f64(value, churn_abandon_fraction))
      return bad("churn_abandon_fraction");
  } else if (key == "shard_bytes") {
    if (!parse_bytes32(value, shard_bytes)) return bad("shard_bytes");
  } else if (key == "record_bytes") {
    if (!parse_bytes32(value, record_bytes)) return bad("record_bytes");
  } else if (key == "think_ns") {
    if (!parse_u64(value, think_ns)) return bad("think_ns");
  } else if (key == "payload_bytes") {
    if (!parse_bytes32(value, payload_bytes)) return bad("payload_bytes");
  } else if (key == "allreduce_count") {
    if (!parse_u32(value, allreduce_count)) return bad("allreduce_count");
  } else if (key == "alltoall_block") {
    if (!parse_bytes32(value, alltoall_block)) return bad("alltoall_block");
  } else if (key == "channel_heap_bytes") {
    if (!parse_bytes(value, channel_heap_bytes)) return bad("channel_heap_bytes");
  } else if (key == "churn_regs_per_tenant") {
    if (!parse_u32(value, churn_regs_per_tenant))
      return bad("churn_regs_per_tenant");
  } else if (key == "churn_bytes") {
    if (!parse_bytes32(value, churn_bytes)) return bad("churn_bytes");
  } else if (key == "churn_hold") {
    if (!parse_u32(value, churn_hold)) return bad("churn_hold");
  } else if (key == "reliable") {
    if (!parse_bool(value, reliable)) return bad("reliable");
  } else if (key == "fault") {
    fault::FaultRule rule;
    if (std::string err = parse_fault_rule(value, rule); !err.empty())
      return err;
    fault_rules.push_back(rule);
  } else if (key == "sample_interval") {
    if (!parse_u64(value, sample_interval)) return bad("sample_interval");
  } else if (key == "slo") {
    SloRule rule;
    if (std::string err = parse_slo_rule(value, rule); !err.empty())
      return err;
    slo_rules.push_back(std::move(rule));
  } else {
    return "unknown key '" + std::string(key) + "'";
  }
  return "";
}

std::uint64_t ScenarioSpec::planned_ops() const {
  const std::uint64_t tenants =
      static_cast<std::uint64_t>(hosts) * tenants_per_host;
  const std::uint64_t churn = tenants * churn_regs_per_tenant;
  switch (pattern) {
    case Pattern::RpcFanout: {
      const std::uint64_t clients =
          hosts > servers ? (static_cast<std::uint64_t>(hosts) - servers) *
                                tenants_per_host
                          : 0;
      // Each RPC is `fanout` request+response transfer pairs.
      return clients * ops_per_tenant * fanout * 2 + churn;
    }
    case Pattern::SkewedKv: {
      const std::uint64_t clients =
          hosts > servers ? (static_cast<std::uint64_t>(hosts) - servers) *
                                tenants_per_host
                          : 0;
      return clients * ops_per_tenant * 2 + churn;  // request + response
    }
    case Pattern::PsAllreduce:
      // Push + broadcast leg per worker per round.
      return 2ULL * (hosts > 1 ? hosts - 1 : 0) * rounds + churn;
    case Pattern::Pipeline:
      // Each record crosses hosts-1 hops.
      return static_cast<std::uint64_t>(tenants_per_host) * ops_per_tenant *
                 (hosts > 1 ? hosts - 1 : 0) +
             churn;
    case Pattern::Collectives:
      return rounds + churn;  // one event per collective round
    case Pattern::KvService: {
      const std::uint64_t chosts =
          hosts > servers ? static_cast<std::uint64_t>(hosts) - servers : 0;
      // One client per host; ops_per_tenant ops per connection on average.
      return chosts * connections_per_client * ops_per_tenant + churn;
    }
  }
  return churn;
}

std::string ScenarioSpec::validate() const {
  if (hosts < 2) return "hosts must be >= 2";
  if (tenants_per_host < 1) return "tenants_per_host must be >= 1";
  if (pattern == Pattern::RpcFanout || pattern == Pattern::SkewedKv ||
      pattern == Pattern::KvService) {
    if (servers == 0) return "servers must be >= 1";
    if (servers >= hosts) return "servers must leave at least one client host";
  }
  if (pattern == Pattern::RpcFanout && fanout == 0)
    return "fanout must be >= 1";
  if (pattern == Pattern::RpcFanout && fanout > servers)
    return "fanout must be <= servers";
  if ((pattern == Pattern::SkewedKv || pattern == Pattern::KvService) &&
      keys == 0)
    return "keys must be >= 1";
  if (pattern == Pattern::KvService) {
    if (connections_per_client == 0) return "connections_per_client must be >= 1";
    if (pipeline_window == 0) return "pipeline_window must be >= 1";
    if (completion_batch == 0) return "completion_batch must be >= 1";
    if (value_bytes == 0) return "value_bytes must be >= 1";
    if (large_value_bytes < value_bytes)
      return "large_value_bytes must be >= value_bytes";
    if (large_fraction < 0.0 || large_fraction > 1.0)
      return "large_fraction must be in [0, 1]";
    if (churn_abandon_fraction < 0.0 || churn_abandon_fraction > 1.0)
      return "churn_abandon_fraction must be in [0, 1]";
  }
  if (pattern == Pattern::Collectives) {
    // The rank heap layout the engine lays these out in.
    if (payload_bytes > 64 * 1024) return "payload_bytes must be <= 64k";
    if (allreduce_count > 8192) return "allreduce_count must be <= 8192";
    if (alltoall_block < 8) return "alltoall_block must be >= 8";
  }
  if (guaranteed_fraction < 0.0 || guaranteed_fraction > 1.0)
    return "guaranteed_fraction must be in [0, 1]";
  if (put_fraction < 0.0 || put_fraction > 1.0)
    return "put_fraction must be in [0, 1]";
  if (churn_regs_per_tenant > 0 && churn_hold == 0)
    return "churn_hold must be >= 1 when churn is enabled";
  if (churn_bytes < simkern::kPageSize && churn_regs_per_tenant > 0)
    return "churn_bytes must be at least one page";
  return "";
}

ParseResult parse_spec(std::string_view text) {
  ParseResult result;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      result.error = "line " + std::to_string(line_no) + ": expected key = value";
      return result;
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (std::string err = result.spec.apply(key, value); !err.empty()) {
      result.error = "line " + std::to_string(line_no) + ": " + err;
      return result;
    }
  }
  if (std::string err = result.spec.validate(); !err.empty())
    result.error = err;
  return result;
}

ParseResult load_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParseResult result;
    result.error = "cannot read spec file " + path;
    return result;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  ParseResult result = parse_spec(buf.str());
  if (!result.ok()) result.error = path + ": " + result.error;
  return result;
}

std::string summary(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << spec.name << ": " << to_string(spec.pattern) << ", " << spec.hosts
      << " hosts x " << spec.tenants_per_host << " tenants, ~"
      << spec.planned_ops() << " ops, seed " << spec.seed;
  if (!spec.fault_rules.empty())
    out << ", " << spec.fault_rules.size() << " fault rule(s)";
  if (!spec.slo_rules.empty())
    out << ", " << spec.slo_rules.size() << " slo rule(s)";
  return out.str();
}

}  // namespace vialock::scenario
