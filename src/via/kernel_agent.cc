#include "via/kernel_agent.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace vialock::via {

KernelAgent::KernelAgent(simkern::Kernel& kern, Nic& nic, LockPolicy& policy)
    : kern_(kern),
      nic_(nic),
      policy_(policy),
      register_ns_(kern.metrics().histogram("via.agent.register_ns")),
      dereg_ns_(kern.metrics().histogram("via.agent.dereg_ns")),
      tpt_alloc_pages_(kern.metrics().histogram("via.tpt.alloc_pages")) {
  kern_.metrics().register_source(
      "via.agent", this, [this](obs::MetricSink& s) {
        s.counter("registrations", stats_.registrations);
        s.counter("deregistrations", stats_.deregistrations);
        s.counter("pages_registered", stats_.pages_registered);
        s.counter("lock_failures", stats_.lock_failures);
        s.counter("tpt_full", stats_.tpt_full);
        s.counter("admission_rejects", stats_.admission_rejects);
        s.counter("lazy_deregs", stats_.lazy_deregs);
        s.counter("tpt_entries_programmed", stats_.tpt_entries_programmed);
        s.gauge("live_registrations", regs_.size());
      });
}

KernelAgent::~KernelAgent() {
  kern_.metrics().unregister_source("via.agent", this);
}

ProtectionTag KernelAgent::create_ptag(simkern::Pid pid) {
  kern_.clock().advance(kern_.costs().syscall);
  ++kern_.mutable_stats().syscalls;
  if (!kern_.task_exists(pid)) return kInvalidTag;
  return next_tag_++;
}

std::optional<simkern::VAddr> KernelAgent::map_doorbell(simkern::Pid pid,
                                                        ViId vi) {
  if (!nic_.vi_exists(vi)) return std::nullopt;
  // Doorbell register pages live in the reserved low frames (the platform's
  // device aperture); frame 0 stays untouchable.
  const simkern::Pfn frame = 1 + vi;
  if (frame >= kern_.config().reserved_low) return std::nullopt;
  return kern_.map_device_page(
      pid, frame, simkern::VmFlag::Read | simkern::VmFlag::Write);
}

KStatus KernelAgent::register_mem(simkern::Pid pid, simkern::VAddr addr,
                                  std::uint64_t len, ProtectionTag tag,
                                  MemHandle& out, RegisterOptions opts) {
  const obs::ScopedSpan span(kern_.spans(), "via.register_mem");
  const VirtualStopwatch sw(kern_.clock());
  const auto charge = [&](KStatus st) {
    register_ns_.add(sw.elapsed());
    return st;
  };
  kern_.clock().advance(kern_.costs().syscall);  // the registration ioctl
  ++kern_.mutable_stats().syscalls;
  if (tag == kInvalidTag || len == 0) return charge(KStatus::Inval);

  Registration reg;
  const KStatus st = policy_.lock(pid, addr, len, reg.lock);
  if (!ok(st)) {
    ++stats_.lock_failures;
    return charge(st);
  }

  if (governor_) {
    const KStatus gst = governor_->charge(pid, reg.lock.pfns);
    if (!ok(gst)) {
      policy_.unlock(reg.lock);
      ++stats_.admission_rejects;
      return charge(gst);
    }
  }

  const auto pages = static_cast<std::uint32_t>(reg.lock.pfns.size());
  const std::vector<SuperpageRun> runs = decompose_superpages(
      reg.lock.pfns, nic_.config().max_superpage_order);
  const auto entries = static_cast<std::uint32_t>(runs.size());
  const TptIndex base = tpt_alloc(entries);
  if (base == kInvalidTptIndex) {
    // Roll back everything claimed so far: governor charge, then the pin.
    if (governor_) governor_->uncharge(pid, reg.lock.pfns);
    policy_.unlock(reg.lock);
    ++stats_.tpt_full;
    return charge(KStatus::NoSpc);
  }
  tpt_alloc_pages_.add(entries);
  program_runs(base, runs, reg.lock.pfns, tag, opts);

  out = MemHandle{.tpt_base = base,
                  .pages = pages,
                  .tpt_count = entries,
                  .vaddr = addr,
                  .length = len,
                  .tag = tag,
                  .id = next_reg_id_++};
  nic_.set_region(out);
  reg.handle = out;
  regs_.emplace(out.id, std::move(reg));
  ++stats_.registrations;
  stats_.pages_registered += pages;
  kern_.trace().record(kern_.clock().now(),
                       vialock::TraceEvent::RegionRegistered, pid, addr,
                       base);
  return charge(KStatus::Ok);
}

KStatus KernelAgent::deregister_mem(const MemHandle& handle) {
  const obs::ScopedSpan span(kern_.spans(), "via.deregister_mem");
  const VirtualStopwatch sw(kern_.clock());
  const auto charge = [&](KStatus st) {
    dereg_ns_.add(sw.elapsed());
    return st;
  };
  const auto it = regs_.find(handle.id);
  if (it == regs_.end()) {
    kern_.clock().advance(kern_.costs().syscall);  // the failed ioctl
    ++kern_.mutable_stats().syscalls;
    return charge(KStatus::NoEnt);
  }
  Registration reg = std::move(it->second);
  regs_.erase(it);

  if (governor_ && governor_->lazy_enabled()) {
    // Defer: append to the governor's user-level dereg ring (no kernel
    // entry); the TPT slots and pins are released at the batched drain.
    // The release closure must be copyable, so only this path moves the
    // registration to the heap.
    auto held = std::make_shared<Registration>(std::move(reg));
    pinmgr::PendingDereg d;
    d.pid = held->lock.pid;
    d.reg_id = held->handle.id;
    d.pages = held->handle.pages;
    d.release = [this, held] { return finish_dereg(*held); };
    if (governor_->defer_dereg(std::move(d))) {
      ++stats_.lazy_deregs;
      return charge(KStatus::Ok);
    }
    reg = std::move(*held);  // refused mid-drain: release eagerly
  }

  kern_.clock().advance(kern_.costs().syscall);
  ++kern_.mutable_stats().syscalls;
  finish_dereg(reg);
  return charge(KStatus::Ok);
}

TptIndex KernelAgent::tpt_alloc(std::uint32_t count) {
  if (faults_) {
    if (const auto d = faults_->check(fault::FaultSite::TptAlloc);
        d && (d->action == fault::FaultAction::Fail ||
              d->action == fault::FaultAction::Drop)) {
      return kInvalidTptIndex;
    }
  }
  TptIndex base = nic_.tpt().alloc(count);
  if (base == kInvalidTptIndex && governor_ &&
      governor_->lazy_queue_depth() > 0) {
    // Deferred deregistrations still hold TPT slots; drain and retry once.
    (void)governor_->flush();
    base = nic_.tpt().alloc(count);
  }
  return base;
}

void KernelAgent::program_runs(TptIndex base, std::span<const SuperpageRun> runs,
                               std::span<const simkern::Pfn> pfns,
                               ProtectionTag tag, RegisterOptions opts) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SuperpageRun& r = runs[i];
    nic_.program_tpt(base + static_cast<TptIndex>(i),
                     TptEntry{.pfn = pfns[r.page_start],
                              .tag = tag,
                              .page_start = r.page_start,
                              .valid = true,
                              .rdma_write_enable = opts.rdma_write,
                              .rdma_read_enable = opts.rdma_read,
                              .order = r.order});
  }
  stats_.tpt_entries_programmed += runs.size();
}

std::uint32_t KernelAgent::finish_dereg(Registration& reg) {
  const std::uint32_t pages = reg.handle.pages;
  nic_.clear_region(reg.handle.tpt_base);
  nic_.tpt().release(reg.handle.tpt_base, reg.handle.tpt_count);
  if (governor_) governor_->uncharge(reg.lock.pid, reg.lock.pfns);
  policy_.unlock(reg.lock);
  ++stats_.deregistrations;
  kern_.trace().record(kern_.clock().now(),
                       vialock::TraceEvent::RegionDeregistered, 0,
                       reg.handle.vaddr, reg.handle.tpt_base);
  return pages;
}

void KernelAgent::release_tenant(simkern::Pid pid) {
  // Complete the tenant's deferred deregistrations before walking the live
  // set (an epoch barrier - correctness-critical point).
  if (governor_) (void)governor_->flush();
  std::vector<std::uint64_t> ids;
  for (const auto& [id, reg] : regs_) {
    if (reg.lock.pid == pid) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());  // regs_ is unordered; keep runs identical
  for (const std::uint64_t id : ids) {
    kern_.clock().advance(kern_.costs().syscall);
    ++kern_.mutable_stats().syscalls;
    const auto it = regs_.find(id);
    if (it == regs_.end()) continue;
    Registration reg = std::move(it->second);
    regs_.erase(it);
    finish_dereg(reg);
  }
  if (governor_) governor_->remove_tenant(pid);
}

const LockHandle* KernelAgent::lock_handle(std::uint64_t reg_id) const {
  auto it = regs_.find(reg_id);
  return it == regs_.end() ? nullptr : &it->second.lock;
}

}  // namespace vialock::via
