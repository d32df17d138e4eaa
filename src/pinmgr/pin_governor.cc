#include "pinmgr/pin_governor.h"

#include <algorithm>
#include <cassert>

namespace vialock::pinmgr {

namespace {

/// Tier of a tenant that set_tenant() never named.
constexpr QosTier kDefaultTier = QosTier::BestEffort;

}  // namespace

PinGovernor::PinGovernor(simkern::Kernel& kern, GovernorConfig config)
    : kern_(kern),
      config_(config),
      charge_ns_(kern.metrics().histogram("pinmgr.charge_ns")) {
  kern_.metrics().register_source("pinmgr", this, [this](obs::MetricSink& s) {
    s.counter("admitted", stats_.admitted);
    s.counter("rejected_quota", stats_.rejected_quota);
    s.counter("rejected_ceiling", stats_.rejected_ceiling);
    s.counter("rejected_injected", stats_.rejected_injected);
    s.counter("frames_charged", stats_.frames_charged);
    s.counter("dedup_hits", stats_.dedup_hits);
    s.counter("lazy_queued", stats_.lazy_queued);
    s.counter("lazy_drains", stats_.lazy_drains);
    s.counter("lazy_drained_entries", stats_.lazy_drained_entries);
    s.counter("flushes", stats_.flushes);
    s.counter("reclaim_invocations", stats_.reclaim_invocations);
    s.counter("reclaim_pages", stats_.reclaim_pages);
    s.counter("reclaim_failures", stats_.reclaim_failures);
    s.counter("tenants_removed", stats_.tenants_removed);
    s.counter("forced_tenant_removals", stats_.forced_tenant_removals);
    s.counter("forced_frames_uncharged", stats_.forced_frames_uncharged);
    s.gauge("total_charged", total_charged_);
    s.gauge("tenants", tenants_.size());
    s.gauge("lazy_queue_depth", queue_.size());
    // SLO-relevant: pages left under the host ceiling before admissions
    // start bouncing - the watchdogs alarm on this approaching zero.
    const std::uint32_t cap = ceiling();
    s.gauge("ceiling_headroom", cap > total_charged_ ? cap - total_charged_ : 0);
  });
}

PinGovernor::~PinGovernor() {
  drain();
  kern_.metrics().unregister_source("pinmgr", this);
}

void PinGovernor::set_tenant(simkern::Pid pid, std::uint32_t quota_pages,
                             QosTier tier) {
  Tenant& t = tenant(pid);
  t.quota = quota_pages;
  t.tier = tier;
}

void PinGovernor::remove_tenant(simkern::Pid pid) {
  auto it = tenants_.find(pid);
  if (it == tenants_.end()) return;
  const Tenant t = std::move(it->second);
  tenants_.erase(it);
  if (t.charged > 0) {
    // The caller should have deregistered everything first (KernelAgent::
    // release_tenant does), but a tenant that exits with live charges must
    // not strand its frames in total_charged_: the seed erased the record
    // and kept counting every surviving frame forever, silently shrinking
    // the host ceiling. With the record gone, each surviving frame no other
    // tenant holds leaves the host count.
    ++stats_.forced_tenant_removals;
    for (simkern::Pfn pfn = 0; pfn < t.pins.size(); ++pfn) {
      if (t.pins[pfn] == 0 || charged_anywhere(pfn)) continue;
      assert(total_charged_ > 0);
      --total_charged_;
      ++stats_.forced_frames_uncharged;
    }
    kern_.trace().record(kern_.clock().now(), TraceEvent::PinUncharged, pid,
                         t.charged, total_charged_);
  }
  ++stats_.tenants_removed;
}

std::uint32_t PinGovernor::tenant_charged(simkern::Pid pid) const {
  auto it = tenants_.find(pid);
  return it == tenants_.end() ? 0 : it->second.charged;
}

std::vector<TenantInfo> PinGovernor::tenants() const {
  std::vector<TenantInfo> out;
  out.reserve(tenants_.size());
  for (const auto& [pid, t] : tenants_) {
    out.push_back(TenantInfo{.pid = pid,
                             .tier = t.tier,
                             .quota = t.quota,
                             .charged = t.charged,
                             .peak = t.peak,
                             .admissions = t.admissions,
                             .rejections = t.rejections});
  }
  return out;
}

PinGovernor::Tenant& PinGovernor::tenant(simkern::Pid pid) {
  auto it = tenants_.find(pid);
  if (it != tenants_.end()) return it->second;
  Tenant t;
  t.tier = kDefaultTier;
  t.quota = config_.default_quota;
  return tenants_.emplace(pid, std::move(t)).first->second;
}

std::uint32_t PinGovernor::tier_limit(QosTier tier) const {
  const std::uint32_t cap = ceiling();
  if (tier == QosTier::Guaranteed) return cap;
  return cap > config_.guaranteed_reserve ? cap - config_.guaranteed_reserve
                                          : 0;
}

bool PinGovernor::charged_anywhere(simkern::Pfn pfn) const {
  for (const auto& [pid, t] : tenants_) {
    if (!t.pins.empty() && t.pins[pfn] > 0) return true;
  }
  return false;
}

PinGovernor::Fresh PinGovernor::fresh_frames(
    const Tenant& t, std::span<const simkern::Pfn> pfns) const {
  Fresh fresh;
  for (const simkern::Pfn pfn : pfns) {
    if (!t.pins.empty() && t.pins[pfn] > 0) continue;
    ++fresh.tenant;
    if (!charged_anywhere(pfn)) ++fresh.host;
  }
  return fresh;
}

std::uint32_t PinGovernor::admission_headroom(simkern::Pid pid) const {
  QosTier tier = kDefaultTier;
  std::uint32_t quota = config_.default_quota;
  std::uint32_t charged = 0;
  if (const auto it = tenants_.find(pid); it != tenants_.end()) {
    tier = it->second.tier;
    quota = it->second.quota;
    charged = it->second.charged;
  }
  const std::uint32_t quota_room = quota > charged ? quota - charged : 0;
  const std::uint32_t cap = tier_limit(tier);
  const std::uint32_t ceiling_room =
      cap > total_charged_ ? cap - total_charged_ : 0;
  return std::min(quota_room, ceiling_room);
}

KStatus PinGovernor::charge(simkern::Pid pid,
                            std::span<const simkern::Pfn> pfns) {
  const VirtualStopwatch sw(kern_.clock());
  kern_.clock().advance(kern_.costs().pin_admission);
  Tenant& t = tenant(pid);

  const auto reject = [&](std::uint64_t& counter, KStatus st) {
    ++counter;
    ++t.rejections;
    kern_.trace().record(kern_.clock().now(), TraceEvent::PinRejected, pid,
                         pfns.size(), total_charged_);
    charge_ns_.add(sw.elapsed());
    return st;
  };

  // Injected quota-check race: the admission decision is made against a
  // stale view and spuriously refuses (the caller may retry).
  if (faults_) {
    if (const auto d = faults_->check(fault::FaultSite::PinAdmission);
        d && (d->action == fault::FaultAction::Fail ||
              d->action == fault::FaultAction::Drop)) {
      return reject(stats_.rejected_injected, KStatus::Again);
    }
  }

  // Admission with two rescue stages: a shortfall first drains the deferred
  // deregistrations (their charges are stale by definition); a guaranteed
  // tenant additionally gets a cooperative-reclaim pass over cold idle
  // client state. Charges are re-counted after each stage.
  bool flushed = false;
  bool reclaimed = false;
  for (;;) {
    const Fresh fresh = fresh_frames(t, pfns);
    const bool quota_ok = t.charged + fresh.tenant <= t.quota;
    const bool ceiling_ok =
        total_charged_ + fresh.host <= tier_limit(t.tier);
    if (quota_ok && ceiling_ok) break;
    if (!flushed && !queue_.empty()) {
      flushed = true;
      drain();
      continue;
    }
    if (!reclaimed && !ceiling_ok && t.tier == QosTier::Guaranteed &&
        !clients_.empty()) {
      reclaimed = true;
      reclaim_from_clients(total_charged_ + fresh.host -
                           tier_limit(t.tier));
      continue;
    }
    if (!quota_ok) return reject(stats_.rejected_quota, KStatus::NoMem);
    return reject(stats_.rejected_ceiling, KStatus::Again);
  }

  if (t.pins.empty()) t.pins.assign(kern_.phys().num_frames(), 0);
  for (const simkern::Pfn pfn : pfns) {
    kern_.clock().advance(kern_.costs().pin_account_frame);
    if (t.pins[pfn] == 0) {
      if (!charged_anywhere(pfn)) ++total_charged_;
      ++t.charged;
      ++stats_.frames_charged;
    } else {
      ++stats_.dedup_hits;
    }
    ++t.pins[pfn];
  }
  t.peak = std::max(t.peak, t.charged);
  ++t.admissions;
  ++stats_.admitted;
  kern_.trace().record(kern_.clock().now(), TraceEvent::PinCharged, pid,
                       pfns.size(), total_charged_);
  charge_ns_.add(sw.elapsed());
  return KStatus::Ok;
}

void PinGovernor::uncharge(simkern::Pid pid,
                           std::span<const simkern::Pfn> pfns) {
  auto it = tenants_.find(pid);
  assert(it != tenants_.end() && "uncharge of unknown tenant");
  if (it == tenants_.end()) return;
  Tenant& t = it->second;
  for (const simkern::Pfn pfn : pfns) {
    kern_.clock().advance(kern_.costs().pin_account_frame);
    const bool charged = pfn < t.pins.size() && t.pins[pfn] > 0;
    assert(charged && "uncharge of uncharged frame");
    if (!charged) continue;
    if (--t.pins[pfn] > 0) continue;
    assert(t.charged > 0);
    --t.charged;
    if (!charged_anywhere(pfn)) {
      assert(total_charged_ > 0);
      --total_charged_;
    }
  }
  kern_.trace().record(kern_.clock().now(), TraceEvent::PinUncharged, pid,
                       pfns.size(), total_charged_);
}

bool PinGovernor::defer_dereg(PendingDereg d) {
  if (!lazy_enabled() || draining_) return false;
  // A user-level append to the deferred-dereg ring: no kernel entry here -
  // that is the whole point (the batch is submitted in one ioctl at drain).
  kern_.clock().advance(kern_.costs().pin_lazy_queue);
  kern_.trace().record(kern_.clock().now(), TraceEvent::LazyDeregQueued, d.pid,
                       d.reg_id, d.pages);
  queue_.push_back(std::move(d));
  ++stats_.lazy_queued;
  if (queue_.size() >= config_.lazy_batch) drain();
  return true;
}

std::uint32_t PinGovernor::flush() {
  ++stats_.flushes;
  return drain();
}

std::uint32_t PinGovernor::drain() {
  if (draining_ || queue_.empty()) return 0;
  draining_ = true;
  // One batched kernel entry submits the whole queue: the fixed ioctl cost
  // is paid once per drain, not once per deregistration (E21).
  kern_.clock().advance(kern_.costs().syscall);
  ++kern_.mutable_stats().syscalls;
  std::vector<PendingDereg> batch;
  batch.swap(queue_);
  std::uint32_t pages = 0;
  for (PendingDereg& d : batch) pages += d.release();
  ++stats_.lazy_drains;
  stats_.lazy_drained_entries += batch.size();
  kern_.trace().record(kern_.clock().now(), TraceEvent::LazyDeregDrained, 0,
                       batch.size(), pages);
  draining_ = false;
  return static_cast<std::uint32_t>(batch.size());
}

std::uint32_t PinGovernor::on_memory_pressure(std::uint32_t target_pages) {
  if (draining_) return 0;
  ++stats_.reclaim_invocations;
  // Injected reclaim failure: the pass runs but releases nothing (models a
  // shrinker that cannot take its locks under pressure).
  if (faults_) {
    if (const auto d = faults_->check(fault::FaultSite::PinReclaim);
        d && (d->action == fault::FaultAction::Fail ||
              d->action == fault::FaultAction::Drop)) {
      ++stats_.reclaim_failures;
      return 0;
    }
  }
  std::uint32_t released = 0;
  // Deferred deregistrations first: completing them is pure win.
  const std::uint32_t before = total_charged_;
  drain();
  released += before - total_charged_;
  stats_.reclaim_pages += released;
  // Then cold idle client state (idle cached registrations), coldest first.
  if (released < target_pages) {
    released += reclaim_from_clients(target_pages - released);
  }
  kern_.trace().record(kern_.clock().now(), TraceEvent::PinReclaimed, 0,
                       released, total_charged_);
  return released;
}

std::uint32_t PinGovernor::reclaim_from_clients(std::uint32_t target_pages) {
  // Client evictions deregister through the kernel agent; they must complete
  // eagerly, not re-enter the deferred queue.
  draining_ = true;
  std::uint32_t released = 0;
  for (ReclaimClient* c : clients_) {
    if (released >= target_pages) break;
    released += c->reclaim_idle(target_pages - released);
  }
  draining_ = false;
  // Counted here so admission-shortfall rescue (charge) shows up in the
  // stats alongside vmscan-driven passes.
  stats_.reclaim_pages += released;
  return released;
}

void PinGovernor::add_reclaim_client(ReclaimClient* client) {
  clients_.push_back(client);
}

void PinGovernor::remove_reclaim_client(ReclaimClient* client) {
  std::erase(clients_, client);
}

}  // namespace vialock::pinmgr
