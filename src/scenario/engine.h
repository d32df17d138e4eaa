// engine.h - compiles a ScenarioSpec onto the via/msg/mp substrate and runs
// it on the event-driven multi-host scheduler.
//
// build() materialises the cluster: per-host kernels/NICs sized from the
// spec, tenant tasks with pinmgr QoS classes and quotas, and an optional
// fault engine armed cluster-wide, then hands the rest to the pattern's
// driver (RPC fan-out, skewed KV, pipeline, PS allreduce, collectives or
// kv-server; engine.cc). run() seeds the driver's actors, then the
// registration churners, drains the scheduler, tears the cluster down in
// a fixed order and audits the invariants the paper cares about: nothing
// left pinned, quota accounting balanced, no kernel self-check violations,
// no lost or corrupted payloads.
//
// Determinism contract (DESIGN.md section 12): the same spec + seed yields
// the same event order, the same virtual-clock costs, and therefore a
// byte-identical report; wall-clock time never enters the report.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "msg/transport.h"
#include "mp/comm.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "scenario/scheduler.h"
#include "scenario/spec.h"
#include "util/rng.h"
#include "util/table.h"
#include "via/node.h"
#include "via/vipl.h"

namespace vialock::scenario {

/// Everything the engine counts while a scenario runs. All values derive
/// from the virtual clock and seeded RNG streams - never from wall time.
struct ScenarioCounters {
  std::uint64_t transfers_attempted = 0;
  std::uint64_t transfers_ok = 0;
  std::uint64_t transfers_failed = 0;
  std::uint64_t bytes_moved = 0;           ///< payload bytes through channels/comm
  std::uint64_t registrations_ok = 0;      ///< churn-actor registrations admitted
  std::uint64_t registrations_failed = 0;  ///< churn-actor registrations rejected
  std::uint64_t deregistrations = 0;       ///< churn-actor deregistrations
  std::uint64_t rpcs = 0;
  std::uint64_t kv_gets = 0;
  std::uint64_t kv_puts = 0;
  std::uint64_t records_delivered = 0;
  std::uint64_t allreduce_rounds = 0;
  std::uint64_t verify_ok = 0;
  std::uint64_t verify_failed = 0;         ///< payload markers that came back wrong
  std::uint64_t channels_created = 0;
};

/// Roll-up of the svc tier's own accounting for the kv-server pattern,
/// aggregated across every KvServer/KvClient just before teardown destroys
/// them. Deliberately NOT part of report_json (that byte surface is frozen by
/// the E23 determinism gate); the E24 bench carries these through its own
/// JSON report instead.
struct KvServiceStats {
  // Server side (summed over servers).
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_shed = 0;
  std::uint64_t conns_closed = 0;
  std::uint64_t conns_abandoned = 0;
  std::uint64_t admission_rejected = 0;
  std::uint64_t requests = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t not_found = 0;
  std::uint64_t corrupt_payloads = 0;
  std::uint64_t arena_full = 0;
  std::uint64_t inline_bytes = 0;
  std::uint64_t eager_copies = 0;
  std::uint64_t rendezvous_ops = 0;
  std::uint64_t rendezvous_bytes = 0;
  std::uint64_t rendezvous_failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_completions = 0;
  std::uint64_t batched_replies = 0;
  std::uint64_t requests_dropped = 0;
  std::uint64_t send_errors = 0;
  // Client side (summed over client hosts).
  std::uint64_t client_requests_lost = 0;
  std::uint64_t client_data_corrupt = 0;
  std::uint64_t client_stale_completions = 0;
  std::uint64_t client_inline_bytes = 0;
  std::uint64_t client_rendezvous_bytes = 0;
  std::uint64_t client_doorbell_flushes = 0;
  std::uint64_t reconnect_failed = 0;
  std::uint64_t peak_open_conns = 0;
  // Client-visible operation latency (virtual ns, log2-bucket upper bounds).
  Nanos p50_ns = 0;
  Nanos p95_ns = 0;
  Nanos p99_ns = 0;
  Nanos p999_ns = 0;

  bool operator==(const KvServiceStats&) const = default;
};

struct ScenarioReport {
  ScenarioCounters counters;

  // Scheduler view.
  std::uint64_t events_dispatched = 0;
  std::uint64_t peak_pending = 0;
  Nanos makespan_ns = 0;   ///< scenario time when the heap drained
  Nanos busy_ns = 0;       ///< summed per-host busy intervals
  Nanos cpu_total_ns = 0;  ///< cluster clock at the end (total simulated cost)

  // Substrate roll-ups (summed across hosts).
  std::uint64_t agent_registrations = 0;  ///< every VipRegisterMem that succeeded
  std::uint64_t agent_deregistrations = 0;
  std::uint64_t admission_rejects = 0;
  std::uint64_t lock_failures = 0;
  std::uint64_t tpt_full = 0;
  std::uint64_t governor_admitted = 0;
  std::uint64_t governor_rejected = 0;
  std::uint64_t faults_injected = 0;

  // Latency of client-visible operations (log2 buckets over virtual ns).
  Nanos latency_p50_ns = 0;
  Nanos latency_p99_ns = 0;

  // Collectives pattern only (E12 compatibility scalars).
  Nanos barrier_ns = 0;
  Nanos broadcast_ns = 0;
  std::uint64_t bcast_msgs = 0;
  Nanos allreduce_ns = 0;
  Nanos alltoall_ns = 0;

  /// ISSUE acceptance scalar: churn registrations + completed transfers.
  [[nodiscard]] std::uint64_t registrations_plus_transfers() const {
    return agent_registrations + counters.transfers_ok;
  }

  // Invariant audit (filled by run() after teardown).
  bool invariants_ok = false;
  std::vector<std::string> violations;

  /// Per-pattern breakdown (KV: per-server load; pipeline: per-hop; ...).
  Table breakdown{{"-"}};
};

/// Canonical JSON rendering of a finished run: spec identity + every report
/// scalar, keys in a fixed order. This is the byte-identity surface the
/// determinism tests and the E23 CI gate compare - same spec + seed must
/// reproduce this string exactly.
[[nodiscard]] std::string report_json(const ScenarioSpec& spec,
                                      const ScenarioReport& report);

/// Compiles and runs one ScenarioSpec. Single-shot: build() then run().
class ScenarioEngine {
 public:
  explicit ScenarioEngine(ScenarioSpec spec);
  ~ScenarioEngine();

  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  /// Materialise the cluster, tenants, governors, faults, communicator.
  [[nodiscard]] KStatus build();
  /// Seed actors, drain the scheduler, tear down, audit. build() first.
  [[nodiscard]] KStatus run();

  [[nodiscard]] const ScenarioReport& report() const { return report_; }
  /// kv-server pattern only: the svc tier's aggregated accounting.
  [[nodiscard]] const KvServiceStats& kv_service_stats() const {
    return kvsvc_stats_;
  }
  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] via::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] EventScheduler& scheduler() { return *sched_; }
  /// The lazily created channel from -> to; nullptr if its setup failed.
  [[nodiscard]] msg::Channel* channel(HostId from, HostId to);

  // --- telemetry (obs::Sampler, DESIGN.md section 16) ------------------------
  /// Force run() to create the sampler even when the spec sets no
  /// sample_interval and no SLO rules (scenario_runner --timeline). Call
  /// before run().
  void enable_timeline() { timeline_requested_ = true; }
  /// Metric references to render as chrome-trace counter overlays
  /// (Sampler::chrome_counter_events). Call before run().
  void set_trace_metrics(std::vector<std::string> refs) {
    trace_metrics_ = std::move(refs);
  }
  /// The run's telemetry sampler, or nullptr when the run had none (no
  /// sample_interval, no SLO rules, enable_timeline() not called).
  [[nodiscard]] obs::Sampler* sampler() { return sampler_.get(); }
  [[nodiscard]] const obs::Sampler* sampler() const { return sampler_.get(); }
  /// Flight dumps captured during the run, (reason, document) in firing
  /// order. SLO rules arm host 0's recorder, so a watchdog that trips dumps
  /// *before* audit() flips the run's status.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  flight_dumps() const {
    return flight_dumps_;
  }

 private:
  // One driver per traffic pattern, defined in engine.cc (DESIGN.md section
  // 12). Nested, so they reach the engine's private state directly.
  class Driver;
  class ClientDriver;
  class RpcDriver;
  class KvDriver;
  class PipelineDriver;
  class PsDriver;
  class CollectivesDriver;
  class KvServiceDriver;

  struct Tenant {
    simkern::Pid pid = simkern::kInvalidPid;
    std::unique_ptr<via::Vipl> vipl;   ///< churn registrations go through this
    simkern::VAddr churn_pool = 0;     ///< pre-mapped slab the churner slices
  };
  struct ChurnActor {
    HostId host = 0;
    std::uint32_t tenant = 0;
    Rng rng{1};
    std::uint32_t remaining = 0;
    std::vector<via::MemHandle> held;
    std::uint32_t next_slot = 0;
  };

  // --- build helpers ---------------------------------------------------------
  [[nodiscard]] KStatus build_hosts();
  [[nodiscard]] KStatus build_tenants();
  /// Create and init the communicator, one rank per host.
  [[nodiscard]] KStatus build_comm(const mp::Comm::Config& cc);

  // --- channels (lazy, per ordered host pair) and actors --------------------
  [[nodiscard]] msg::Channel::Config channel_config(HostId from, HostId to) const;
  void seed_actors();
  void run_churn_op(std::size_t actor);

  /// One transfer attempt with failure accounting; true on success.
  bool do_transfer(msg::Channel* ch, std::uint32_t len,
                   std::uint64_t src_off = 0, std::uint64_t dst_off = 0);

  /// Lazily build the sampler (registries, SLO rules, flight sink,
  /// scheduler tick) when the spec or the caller asked for telemetry.
  void setup_sampler();

  // --- teardown / audit ------------------------------------------------------
  void teardown();
  void audit();
  void fill_report();
  void violation(std::string msg);

  ScenarioSpec spec_;
  bool built_ = false;
  bool ran_ = false;

  std::unique_ptr<via::Cluster> cluster_;
  std::unique_ptr<EventScheduler> sched_;
  std::vector<std::vector<Tenant>> tenants_;  ///< [host][tenant]
  std::unique_ptr<fault::FaultEngine> faults_;

  std::vector<std::unique_ptr<msg::Channel>> channels_;  ///< [from*hosts + to]
  std::unique_ptr<mp::Comm> comm_;  ///< PsAllreduce / Collectives patterns
  std::unique_ptr<Driver> driver_;
  std::vector<ChurnActor> churners_;
  KvServiceStats kvsvc_stats_;

  // Telemetry (DESIGN.md section 16).
  std::unique_ptr<obs::Sampler> sampler_;
  bool timeline_requested_ = false;
  std::vector<std::string> trace_metrics_;
  std::vector<std::pair<std::string, std::string>> flight_dumps_;

  ScenarioCounters counters_;
  obs::Histogram latency_;  ///< client-visible op latency, virtual ns
  ScenarioReport report_;
};

}  // namespace vialock::scenario
