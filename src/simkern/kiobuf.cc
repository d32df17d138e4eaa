// kiobuf.cc - map_user_kiobuf and friends: the paper's proposed mechanism.
//
// map_user_kiobuf() is the kernel-sanctioned way to hand a driver the
// physical pages of a user buffer: it faults the range in, elevates each
// frame's reference count, records the frames in the kiobuf, and pins them
// against reclaim (Page::pin_count, honoured by try_to_swap_out). The driver
// never reads page tables - the conformance requirement of section 4.1.
//
// Each call carries its own pin, so registrations of the same range nest;
// unmap_kiobuf() releases exactly one pin per page.
#include <cassert>

#include "simkern/kernel.h"

namespace vialock::simkern {

void Kernel::account_pin(Pfn pfn) {
  if (phys_.page(pfn).pin_count++ == 0) ++pinned_frames_;
  trace_.record(clock_.now(), TraceEvent::PagePinned, 0, 0, pfn);
}

void Kernel::account_unpin(Pfn pfn) {
  Page& pg = phys_.page(pfn);
  assert(pg.pin_count > 0 && "kiobuf pin accounting underflow");
  if (--pg.pin_count == 0) {
    assert(pinned_frames_ > 0);
    --pinned_frames_;
  }
  trace_.record(clock_.now(), TraceEvent::PageUnpinned, 0, 0, pfn);
}

Kiobuf Kernel::alloc_kiovec() {
  clock_.advance(costs_.kiobuf_setup);
  return Kiobuf{};
}

KStatus Kernel::map_user_kiobuf(Pid pid, Kiobuf& iobuf, VAddr addr,
                                std::uint64_t len) {
  assert(!iobuf.mapped && "kiobuf already mapped");
  Task* const tp = find_task(pid);
  if (tp == nullptr) return KStatus::NoEnt;
  if (len == 0) return KStatus::Inval;
  Task& t = *tp;

  const VAddr start = page_align_down(addr);
  const VAddr end = page_align_up(addr + len);

  iobuf.pfns.clear();
  iobuf.pfns.reserve((end - start) >> kPageShift);

  auto rollback = [&] {
    for (const Pfn pfn : iobuf.pfns) {
      account_unpin(pfn);
      put_page(pfn);
    }
    iobuf.pfns.clear();
  };

  // Injected map failure (transient, like a momentary pin-budget squeeze):
  // callers treat it exactly like the budget rejection below and may retry.
  if (faults_) {
    if (const auto d = faults_->check(fault::FaultSite::KiobufMap);
        d && (d->action == fault::FaultAction::Fail ||
              d->action == fault::FaultAction::Drop)) {
      ++stats_.kiobuf_fault_rejections;
      return KStatus::Again;
    }
  }

  // Pin budget: pinned frames are invisible to reclaim, so the kernel bounds
  // them (like RLIMIT_MEMLOCK bounds mlock). Conservative pre-check against
  // the worst case of all-new frames.
  const std::uint64_t want = (end - start) >> kPageShift;
  if (pinned_frames_ + want > pin_budget()) {
    ++stats_.kiobuf_pin_rejections;
    return KStatus::Again;
  }

  for (VAddr v = start; v < end; v += kPageSize) {
    const Vma* vma = t.mm.vmas.find(v);
    if (!vma) {
      rollback();
      return KStatus::Fault;
    }
    // Fault with write access when the mapping allows it, so COW is broken
    // *before* the NIC learns the physical address.
    const bool write = has(vma->flags, VmFlag::Write);
    const KStatus st = make_present(pid, v, write);
    if (!ok(st)) {
      rollback();
      return st;
    }
    const Pte* pte = t.mm.pt.walk(v);
    assert(pte && pte->present);
    const Pfn pfn = pte->pfn;
    get_page(pfn);     // hold a reference for the kiobuf
    account_pin(pfn);  // and pin against reclaim
    iobuf.pfns.push_back(pfn);
    clock_.advance(costs_.kiobuf_per_page);
    ++stats_.kiobuf_pages_pinned;
  }

  iobuf.pid = pid;
  iobuf.addr = addr;
  iobuf.length = len;
  iobuf.offset = static_cast<std::uint32_t>(addr - start);
  iobuf.mapped = true;
  ++stats_.kiobuf_maps;
  return KStatus::Ok;
}

void Kernel::unmap_kiobuf(Kiobuf& iobuf) {
  if (!iobuf.mapped) return;
  if (iobuf.io_locked) unlock_kiovec(iobuf);
  for (const Pfn pfn : iobuf.pfns) {
    account_unpin(pfn);
    put_page(pfn);
  }
  iobuf.pfns.clear();
  iobuf.mapped = false;
  iobuf.length = 0;
}

KStatus Kernel::lock_kiovec(Kiobuf& iobuf) {
  assert(iobuf.mapped);
  if (iobuf.io_locked) return KStatus::Ok;
  // All-or-nothing: refuse if any page is already under I/O, then lock all.
  for (const Pfn pfn : iobuf.pfns) {
    if (phys_.page(pfn).locked()) return KStatus::Busy;
  }
  for (const Pfn pfn : iobuf.pfns) {
    phys_.page(pfn).flags |= PageFlag::Locked;
  }
  iobuf.io_locked = true;
  return KStatus::Ok;
}

void Kernel::unlock_kiovec(Kiobuf& iobuf) {
  if (!iobuf.io_locked) return;
  for (const Pfn pfn : iobuf.pfns) {
    phys_.page(pfn).flags &= ~PageFlag::Locked;
  }
  iobuf.io_locked = false;
}

}  // namespace vialock::simkern
