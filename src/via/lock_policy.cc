#include "via/lock_policy.h"

#include <cassert>

namespace vialock::via {

using simkern::kPageShift;
using simkern::kPageSize;
using simkern::Pfn;
using simkern::Pid;
using simkern::VAddr;

// ---------------------------------------------------------------------------
// Shared helper
// ---------------------------------------------------------------------------

KStatus LockPolicy::fault_in_and_collect(Pid pid, VAddr addr, std::uint64_t len,
                                         std::vector<Pfn>& pfns) {
  if (!kern_.task_exists(pid)) return KStatus::NoEnt;
  if (len == 0) return KStatus::Inval;
  auto& t = kern_.task(pid);
  const VAddr start = simkern::page_align_down(addr);
  const VAddr end = simkern::page_align_up(addr + len);
  pfns.clear();
  pfns.reserve((end - start) >> kPageShift);
  for (VAddr v = start; v < end; v += kPageSize) {
    const auto* vma = t.mm.vmas.find(v);
    if (!vma) return KStatus::Fault;
    const bool write = has(vma->flags, simkern::VmFlag::Write);
    const KStatus st = kern_.make_present(pid, v, write);
    if (!ok(st)) return st;
    const auto pfn = kern_.resolve(pid, v);  // the forbidden page-table read
    if (!pfn) return KStatus::Fault;
    pfns.push_back(*pfn);
  }
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// RefcountLockPolicy (Berkeley-VIA / M-VIA)
// ---------------------------------------------------------------------------

KStatus RefcountLockPolicy::lock(Pid pid, VAddr addr, std::uint64_t len,
                                 LockHandle& out) {
  const KStatus st = fault_in_and_collect(pid, addr, len, out.pfns);
  if (!ok(st)) return st;
  for (const Pfn pfn : out.pfns) kern_.get_page(pfn);
  out.pid = pid;
  out.addr = addr;
  out.len = len;
  out.active = true;
  return KStatus::Ok;
}

void RefcountLockPolicy::unlock(LockHandle& h) {
  if (!h.active) return;
  for (const Pfn pfn : h.pfns) kern_.put_page(pfn);
  h.active = false;
}

// ---------------------------------------------------------------------------
// PageFlagLockPolicy (Giganet cLAN)
// ---------------------------------------------------------------------------

KStatus PageFlagLockPolicy::lock(Pid pid, VAddr addr, std::uint64_t len,
                                 LockHandle& out) {
  const KStatus st = fault_in_and_collect(pid, addr, len, out.pfns);
  if (!ok(st)) return st;
  for (const Pfn pfn : out.pfns) {
    kern_.get_page(pfn);
    auto& pg = kern_.phys().page(pfn);
    // "they do not check if the page is possibly already locked by the
    // kernel" - if it is, we just clobbered the state; count the hazard.
    if (pg.locked()) ++kern_.mutable_stats().io_flag_collisions;
    pg.flags |= simkern::PageFlag::Locked | simkern::PageFlag::Reserved;
  }
  out.pid = pid;
  out.addr = addr;
  out.len = len;
  out.active = true;
  return KStatus::Ok;
}

void PageFlagLockPolicy::unlock(LockHandle& h) {
  if (!h.active) return;
  for (const Pfn pfn : h.pfns) {
    auto& pg = kern_.phys().page(pfn);
    // "the PG_locked flag is reset regardless of the counter state" - even
    // if kernel I/O or another registration still needs it.
    pg.flags &= ~(simkern::PageFlag::Locked | simkern::PageFlag::Reserved);
    kern_.put_page(pfn);
  }
  h.active = false;
}

// ---------------------------------------------------------------------------
// MlockLockPolicy
// ---------------------------------------------------------------------------

KStatus MlockLockPolicy::do_lock_syscall(Pid pid, VAddr addr, std::uint64_t len,
                                         bool lock) {
  if (opts_.userdma_patch) {
    // User-DMA patch: the uid check moved out of do_mlock, so the driver can
    // call the exported do_mlock() directly.
    return kern_.do_mlock(pid, addr, len, lock);
  }
  // Capability trick: grant CAP_IPC_LOCK around the call, then reclaim it.
  kern_.cap_raise(pid, simkern::Capability::IpcLock);
  const KStatus st = lock ? kern_.sys_mlock(pid, addr, len)
                          : kern_.sys_munlock(pid, addr, len);
  kern_.cap_lower(pid, simkern::Capability::IpcLock);
  return st;
}

KStatus MlockLockPolicy::lock(Pid pid, VAddr addr, std::uint64_t len,
                              LockHandle& out) {
  const RangeKey key{pid, simkern::page_align_down(addr),
                     simkern::page_align_up(addr + len)};
  if (opts_.track_ranges) {
    // The 0->1 claimant performs the syscall; later same-range lockers see a
    // nonzero count and ride on it.
    if (range_counts_[key]++ == 0) {
      const KStatus st = do_lock_syscall(pid, addr, len, /*lock=*/true);
      if (!ok(st)) {
        auto it = range_counts_.find(key);
        if (it != range_counts_.end() && --it->second == 0)
          range_counts_.erase(it);
        return st;
      }
    }
  } else {
    const KStatus st = do_lock_syscall(pid, addr, len, /*lock=*/true);
    if (!ok(st)) return st;
  }
  // mlock made the range resident; still need the physical addresses for the
  // TPT, which only a page-table walk can supply.
  const KStatus st = fault_in_and_collect(pid, addr, len, out.pfns);
  if (!ok(st)) return st;
  out.pid = pid;
  out.addr = addr;
  out.len = len;
  out.active = true;
  return KStatus::Ok;
}

void MlockLockPolicy::unlock(LockHandle& h) {
  if (!h.active) return;
  const RangeKey key{h.pid, simkern::page_align_down(h.addr),
                     simkern::page_align_up(h.addr + h.len)};
  if (opts_.track_ranges) {
    auto it = range_counts_.find(key);
    assert(it != range_counts_.end() && it->second > 0);
    if (--it->second == 0) {
      range_counts_.erase(it);
      (void)do_lock_syscall(h.pid, h.addr, h.len, /*lock=*/false);
    }
  } else {
    // "mlock calls do not nest, i.e. a single unlock operation annuls
    // multiple lock operations on the same address."
    (void)do_lock_syscall(h.pid, h.addr, h.len, /*lock=*/false);
  }
  h.active = false;
}

// ---------------------------------------------------------------------------
// KiobufLockPolicy - the proposed mechanism
// ---------------------------------------------------------------------------

KStatus KiobufLockPolicy::lock(Pid pid, VAddr addr, std::uint64_t len,
                               LockHandle& out) {
  out.kiobuf = kern_.alloc_kiovec();
  const KStatus st = kern_.map_user_kiobuf(pid, out.kiobuf, addr, len);
  if (!ok(st)) return st;
  out.pfns = out.kiobuf.pfns;  // physical pages, supplied BY the kernel
  out.pid = pid;
  out.addr = addr;
  out.len = len;
  out.active = true;
  return KStatus::Ok;
}

void KiobufLockPolicy::unlock(LockHandle& h) {
  if (!h.active) return;
  kern_.unmap_kiobuf(h.kiobuf);
  h.active = false;
}

}  // namespace vialock::via
