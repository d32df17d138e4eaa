// pin_governor.h - the host-wide pinned-memory governor.
//
// The paper's defect analysis (section 3.2) is that Linux mlock-style locking
// has no truthful accounting of *who* pinned *what*: locked pages are counted
// per-VMA and double-counted across overlapping registrations, and privileged
// pinning is unlimited, so communication memory can starve the VM. The
// PinGovernor brokers every page-pin the VIA kernel agent performs and fixes
// exactly that:
//
//   * per-tenant (Pid) accounting with RLIMIT_MEMLOCK-style quotas plus a
//     global host ceiling, frame-deduplicated: overlapping or repeated
//     registrations of the same frame are charged once (the paper's
//     double-count bug, done right);
//   * admission control with QoS tiers: a best-effort tenant may only dip
//     into the ceiling minus a reserve kept for guaranteed tenants, so its
//     registration fails cleanly instead of starving a guaranteed one;
//   * a lazy-deregistration queue: deregisters append to a user-level ring
//     and are submitted in one batched kernel entry once `lazy_batch` deep,
//     so the fixed per-ioctl cost amortises (experiment E21); flush() is the
//     epoch barrier for correctness-critical points (tenant exit, TPT
//     shortage, benchmarks' end-of-phase);
//   * cooperative reclaim: vmscan's try_to_free_pages invokes
//     on_memory_pressure(), which drains the deferred-dereg queue and asks
//     registered ReclaimClients (RegistrationCache) to evict cold idle
//     entries before the kernel swaps hot pages.
//
// One pin count per frame: each tenant's `pins` array is the only per-frame
// count. Whether a frame is charged anywhere on the host is a walk over the
// tenants' arrays (a handful per host), so no host-wide copy can drift from
// them; total_charged_ counts the frames that walk finds held.
//
// Determinism: pin counts are per-frame arrays walked by ascending pfn, all
// else is std::map or insertion-ordered vectors; same-seed runs bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "simkern/kernel.h"
#include "util/status.h"

namespace vialock::pinmgr {

enum class QosTier : std::uint8_t {
  Guaranteed,  ///< may use the full host ceiling; reclaim runs on its behalf
  BestEffort,  ///< capped at ceiling - guaranteed_reserve; fails early
};

[[nodiscard]] constexpr std::string_view to_string(QosTier t) {
  switch (t) {
    case QosTier::Guaranteed: return "guaranteed";
    case QosTier::BestEffort: return "best-effort";
  }
  return "?";
}

struct GovernorConfig {
  /// Host-wide ceiling on governed pinned pages (0 = the kernel's pin_budget).
  std::uint32_t host_ceiling = 0;
  /// Per-tenant default quota in pages (the RLIMIT_MEMLOCK analogue), applied
  /// when a tenant first registers without an explicit set_tenant() call.
  std::uint32_t default_quota = 1024;
  /// Pages of the ceiling only guaranteed tenants may use.
  std::uint32_t guaranteed_reserve = 0;
  /// Deferred deregistrations per batch; 0 makes every dereg eager.
  std::uint32_t lazy_batch = 0;
};

struct GovernorStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_quota = 0;     ///< per-tenant quota exceeded (ENOMEM)
  std::uint64_t rejected_ceiling = 0;   ///< host ceiling exceeded (EAGAIN)
  std::uint64_t rejected_injected = 0;  ///< FaultSite::PinAdmission fired
  std::uint64_t frames_charged = 0;     ///< cumulative newly charged frames
  std::uint64_t dedup_hits = 0;         ///< frames already charged to the tenant
  std::uint64_t lazy_queued = 0;
  std::uint64_t lazy_drains = 0;
  std::uint64_t lazy_drained_entries = 0;
  std::uint64_t flushes = 0;            ///< explicit epoch barriers
  std::uint64_t reclaim_invocations = 0;
  std::uint64_t reclaim_pages = 0;
  std::uint64_t reclaim_failures = 0;   ///< FaultSite::PinReclaim fired
  std::uint64_t tenants_removed = 0;
  std::uint64_t forced_tenant_removals = 0;  ///< removed with live charges
  std::uint64_t forced_frames_uncharged = 0;  ///< frames rescued from the leak
};

/// Snapshot of one tenant's accounting, for reports and tests.
struct TenantInfo {
  simkern::Pid pid = simkern::kInvalidPid;
  QosTier tier = QosTier::BestEffort;
  std::uint32_t quota = 0;
  std::uint32_t charged = 0;  ///< distinct frames currently charged
  std::uint32_t peak = 0;
  std::uint64_t admissions = 0;
  std::uint64_t rejections = 0;

  bool operator==(const TenantInfo&) const = default;
};

/// A holder of evictable pinned state (the RegistrationCache): the governor
/// calls reclaim_idle under memory pressure or on a guaranteed tenant's
/// admission shortfall.
class ReclaimClient {
 public:
  virtual ~ReclaimClient() = default;
  /// Release up to `target_pages` pages of cold idle pinned state (evict
  /// least-recently-used cached registrations). Returns pages released.
  virtual std::uint32_t reclaim_idle(std::uint32_t target_pages) = 0;
};

/// One deferred deregistration. `release` performs the real work (TPT
/// release, unpin, uncharge) and returns the pages it released.
struct PendingDereg {
  simkern::Pid pid = simkern::kInvalidPid;
  std::uint64_t reg_id = 0;
  std::uint32_t pages = 0;
  std::function<std::uint32_t()> release;
};

class PinGovernor final : public simkern::PressureHandler {
 public:
  PinGovernor(simkern::Kernel& kern, GovernorConfig config);
  /// Drains the deferred-dereg queue so no pin outlives the governor.
  ~PinGovernor() override;

  PinGovernor(const PinGovernor&) = delete;
  PinGovernor& operator=(const PinGovernor&) = delete;

  // --- tenants ---------------------------------------------------------------
  /// Create or update a tenant's quota and tier (the setrlimit analogue).
  void set_tenant(simkern::Pid pid, std::uint32_t quota_pages, QosTier tier);
  /// Tenant exit. All its charges should already be released (KernelAgent::
  /// release_tenant deregisters live registrations first); drops the record.
  /// A tenant that still holds charges has them dropped with its record
  /// (stats().forced_tenant_removals counts it): every frame no other tenant
  /// holds leaves total_charged_, so an exit never strands frames there.
  void remove_tenant(simkern::Pid pid);
  [[nodiscard]] bool tenant_known(simkern::Pid pid) const {
    return tenants_.contains(pid);
  }
  [[nodiscard]] std::uint32_t tenant_charged(simkern::Pid pid) const;
  /// All tenants, ordered by pid (deterministic).
  [[nodiscard]] std::vector<TenantInfo> tenants() const;

  // --- admission + accounting -------------------------------------------------
  /// Admit and charge the frames of a registration about to be pinned.
  /// Frames already charged to the tenant cost nothing (overlap dedup). On a
  /// shortfall the governor first drains the deferred-dereg queue, then - for
  /// guaranteed tenants - runs cooperative reclaim, before rejecting:
  /// NoMem = tenant quota exceeded, Again = host ceiling / injected race.
  [[nodiscard]] KStatus charge(simkern::Pid pid,
                               std::span<const simkern::Pfn> pfns);
  /// Release one charge() worth of frames (multiplicity-aware).
  void uncharge(simkern::Pid pid, std::span<const simkern::Pfn> pfns);

  /// Admission-pressure probe: the number of fresh pages `pid` could still
  /// charge right now, the minimum of its remaining quota and its tier's
  /// remaining share of the host ceiling. Conservative (assumes no frame
  /// dedup and counts the deferred-dereg queue as still charged), free of
  /// side effects, and charges no virtual time - a service tier uses it to
  /// shed a BestEffort connection *before* doing any registration work
  /// instead of discovering the rejection halfway through a handshake.
  [[nodiscard]] std::uint32_t admission_headroom(simkern::Pid pid) const;

  // --- lazy deregistration -----------------------------------------------------
  [[nodiscard]] bool lazy_enabled() const { return config_.lazy_batch > 0; }
  /// Queue a deferred deregistration; auto-drains at lazy_batch entries.
  /// Returns false (caller must release eagerly) when laziness is off or a
  /// drain/reclaim pass is in progress.
  bool defer_dereg(PendingDereg d);
  /// Epoch barrier: complete every queued deregistration now. Returns the
  /// number of entries drained.
  std::uint32_t flush();
  [[nodiscard]] std::size_t lazy_queue_depth() const {
    return queue_.size();
  }

  // --- cooperative reclaim -----------------------------------------------------
  /// vmscan's pressure callback: drain the lazy queue, then evict cold idle
  /// client state until `target_pages` are released. Returns pages released.
  std::uint32_t on_memory_pressure(std::uint32_t target_pages) override;
  void add_reclaim_client(ReclaimClient* client);
  void remove_reclaim_client(ReclaimClient* client);

  void set_fault_engine(fault::FaultEngine* engine) { faults_ = engine; }

  // --- accessors ---------------------------------------------------------------
  [[nodiscard]] const GovernorConfig& config() const { return config_; }
  [[nodiscard]] const GovernorStats& stats() const { return stats_; }
  /// Distinct frames currently charged host-wide.
  [[nodiscard]] std::uint32_t total_charged() const {
    return total_charged_;
  }
  /// Effective host ceiling in pages.
  [[nodiscard]] std::uint32_t ceiling() const {
    return config_.host_ceiling ? config_.host_ceiling : kern_.pin_budget();
  }

 private:
  struct Tenant {
    QosTier tier = QosTier::BestEffort;
    std::uint32_t quota = 0;
    std::uint32_t charged = 0;  ///< distinct frames currently charged
    std::uint32_t peak = 0;
    std::uint64_t admissions = 0;
    std::uint64_t rejections = 0;
    std::vector<std::uint32_t> pins;  ///< frame -> multiplicity; sized lazily
  };

  [[nodiscard]] Tenant& tenant(simkern::Pid pid);  ///< get-or-create
  /// Ceiling a tenant of `tier` may charge up to.
  [[nodiscard]] std::uint32_t tier_limit(QosTier tier) const;
  /// Whether any tenant holds a charge on `pfn`. The host-wide count per
  /// frame is the sum of the tenants' `pins`, walked rather than kept.
  [[nodiscard]] bool charged_anywhere(simkern::Pfn pfn) const;
  struct Fresh {
    std::uint32_t tenant = 0;  ///< frames not yet charged to the tenant
    std::uint32_t host = 0;    ///< ... and not charged to any tenant
  };
  [[nodiscard]] Fresh fresh_frames(const Tenant& t,
                                   std::span<const simkern::Pfn> pfns) const;
  std::uint32_t drain();
  std::uint32_t reclaim_from_clients(std::uint32_t target_pages);

  simkern::Kernel& kern_;
  GovernorConfig config_;
  GovernorStats stats_;
  /// Admission-path latency (owned by the kernel's metric registry).
  obs::Histogram& charge_ns_;
  std::map<simkern::Pid, Tenant> tenants_;
  std::uint32_t total_charged_ = 0;  ///< frames charged to any tenant
  std::vector<PendingDereg> queue_;
  std::vector<ReclaimClient*> clients_;
  bool draining_ = false;  ///< a drain or reclaim pass is executing
  fault::FaultEngine* faults_ = nullptr;
};

}  // namespace vialock::pinmgr
