// mlock.cc - the mlock/munlock syscall family (section 3.2 of the paper).
//
// sys_mlock() performs the privilege check that makes the VMA-based locking
// approach awkward for a VIA driver: only tasks with CAP_IPC_LOCK may pin
// memory. The paper lists two work-arounds, both modelled here:
//   * the "User-DMA patch": moves the check out of do_mlock() so a driver can
//     call do_mlock() directly (KernelConfig::userdma_patch / the exported
//     Kernel::do_mlock entry point);
//   * cap_raise()/cap_lower(): the driver temporarily grants CAP_IPC_LOCK to
//     the current task around the call.
//
// Crucially, mlock does NOT nest: do_mlock(lock=false) clears VM_LOCKED no
// matter how many times the range was locked - "a single unlock operation
// annuls multiple lock operations on the same address". Experiment E2 turns
// this into a measurable failure for multiple registration.
#include <cassert>

#include "simkern/kernel.h"

namespace vialock::simkern {

KStatus Kernel::sys_mlock(Pid pid, VAddr addr, std::uint64_t len) {
  ++stats_.syscalls;
  ++stats_.mlock_calls;
  clock_.advance(costs_.syscall);
  Task* const tp = find_task(pid);
  if (tp == nullptr) return KStatus::NoEnt;
  Task& t = *tp;
  if (!config_.userdma_patch && !t.capable(Capability::IpcLock)) {
    return KStatus::Perm;
  }
  const std::uint64_t pages = pages_spanned(addr, len);
  if ((t.mm.locked_pages + pages) * kPageSize > t.rlimit_memlock) {
    return KStatus::NoMem;
  }
  return do_mlock(pid, addr, len, /*lock=*/true);
}

KStatus Kernel::sys_munlock(Pid pid, VAddr addr, std::uint64_t len) {
  ++stats_.syscalls;
  ++stats_.munlock_calls;
  clock_.advance(costs_.syscall);
  if (!task_exists(pid)) return KStatus::NoEnt;
  return do_mlock(pid, addr, len, /*lock=*/false);
}

KStatus Kernel::do_mlock(Pid pid, VAddr addr, std::uint64_t len, bool lock) {
  Task* const tp = find_task(pid);
  if (tp == nullptr) return KStatus::NoEnt;
  if (len == 0) return KStatus::Ok;
  Task& t = *tp;
  const VAddr start = page_align_down(addr);
  const VAddr end = page_align_up(addr + len);

  std::uint32_t vma_ops = 0;
  const bool covered = t.mm.vmas.set_flags_range(
      start, end, lock ? VmFlag::Locked : VmFlag::None,
      lock ? VmFlag::None : VmFlag::Locked, &vma_ops);
  clock_.advance(costs_.vma_op * vma_ops);
  if (!covered) return KStatus::NoMem;  // mlock over unmapped memory => ENOMEM

  const std::uint64_t pages = (end - start) >> kPageShift;
  if (lock) {
    // make_pages_present(): fault everything in so the locked range is
    // resident, as mlock(2) guarantees.
    for (VAddr v = start; v < end; v += kPageSize) {
      const Vma* vma = t.mm.vmas.find(v);
      assert(vma);
      const KStatus st = make_present(pid, v, has(vma->flags, VmFlag::Write));
      if (!ok(st)) return st;
    }
    t.mm.locked_pages += pages;
  } else {
    t.mm.locked_pages -= std::min<std::uint64_t>(t.mm.locked_pages, pages);
  }
  return KStatus::Ok;
}

void Kernel::cap_raise(Pid pid, Capability cap) { task(pid).caps |= cap; }

void Kernel::cap_lower(Pid pid, Capability cap) { task(pid).caps &= ~cap; }

}  // namespace vialock::simkern
