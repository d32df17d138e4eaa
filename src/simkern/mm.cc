// mm.cc - demand paging: the page-fault path (minor / major / COW) and the
// user-memory access helpers that drive it.
//
// The major-fault branch is the second half of the paper's failure analysis:
// a swapped-out PTE is satisfied by allocating a *new* frame and reading the
// contents back from swap - "it cannot be one of the pages formerly mapped to
// the registered region since the kernel still regards them used" (section
// 3.1). After this, a NIC holding the old physical address DMAs into a frame
// the process can no longer see.
#include <algorithm>
#include <cassert>
#include <cstring>

#include "simkern/kernel.h"

namespace vialock::simkern {

namespace {

[[nodiscard]] bool needs_fault(const Pte* pte, bool write) {
  if (!pte || !pte->present) return true;
  if (write && (pte->cow || !pte->writable)) return true;
  return false;
}

}  // namespace

KStatus Kernel::handle_fault(Task& t, VAddr vaddr, Access access) {
  const VAddr page_addr = page_align_down(vaddr);
  clock_.advance(costs_.fault_entry);

  const Vma* vma = t.mm.vmas.find(page_addr);
  if (!vma) {
    ++stats_.segv;
    return KStatus::Fault;
  }
  const bool write = access == Access::Write;
  if (write && !has(vma->flags, VmFlag::Write)) {
    ++stats_.segv;
    return KStatus::Fault;
  }
  if (!write && !has(vma->flags, VmFlag::Read)) {
    ++stats_.segv;
    return KStatus::Fault;
  }

  std::uint32_t levels = 0;
  Pte& pte = t.mm.pt.ensure(page_addr, &levels);
  clock_.advance(costs_.pte_walk_level * (2 + levels));
  if (levels) clock_.advance(costs_.page_alloc);  // new second-level table

  if (pte.present) {
    if (write && pte.cow) {
      // Copy-on-write break.
      Page& old = phys_.page(pte.pfn);
      if (old.count == 1) {
        // Sole owner: just regain write access.
        pte.cow = false;
        pte.writable = true;
      } else {
        const Pfn fresh = get_free_page();
        if (fresh == kInvalidPfn) return KStatus::NoMem;
        phys_.copy_frame(fresh, pte.pfn);
        clock_.advance(costs_.copy(kPageSize));
        notify_invalidate(t.pid, page_addr, pte.pfn);  // translation replaced
        put_page(pte.pfn);
        pte.pfn = fresh;
        pte.cow = false;
        pte.writable = true;
      }
      ++stats_.cow_breaks;
      trace_.record(clock_.now(), TraceEvent::CowBreak, t.pid, page_addr,
                    pte.pfn);
      return KStatus::Ok;
    }
    // Present but write-protected without COW: regain access per VMA.
    if (write) pte.writable = true;
    return KStatus::Ok;
  }

  if (has(vma->flags, VmFlag::Shared) && vma->shm != kInvalidShm) {
    return shm_fault(t, *vma, page_addr, pte, write);
  }

  if (pte.swap != kInvalidSwapSlot) {
    // Major fault: read the page back from swap into a freshly allocated
    // frame (never the old one - see file comment).
    const Pfn fresh = get_free_page();
    if (fresh == kInvalidPfn) return KStatus::NoMem;
    if (const KStatus st = swap_.read(pte.swap, phys_.frame(fresh));
        !ok(st)) {
      // Injected swap I/O error: the page stays on swap (slot kept, PTE
      // untouched) so a retry can succeed; the fresh frame goes back.
      put_page(fresh);
      return st;
    }
    swap_.free(pte.swap);
    pte.swap = kInvalidSwapSlot;
    pte.present = true;
    pte.pfn = fresh;
    pte.writable = write && has(vma->flags, VmFlag::Write);
    pte.cow = false;
    pte.accessed = true;
    ++t.mm.rss;
    ++stats_.major_faults;
    ++stats_.pages_swapped_in;
    trace_.record(clock_.now(), TraceEvent::MajorFault, t.pid, page_addr,
                  fresh);

    // Swap read-ahead (page_cluster): pull adjacent swapped pages of the
    // same VMA in while the disk head is here.
    for (std::uint32_t ahead = 1; ahead <= config_.swap_readahead; ++ahead) {
      const VAddr v = page_addr + (static_cast<VAddr>(ahead) << kPageShift);
      if (v >= vma->end) break;
      Pte* apte = t.mm.pt.walk(v);
      if (!apte || apte->present || apte->swap == kInvalidSwapSlot) break;
      const Pfn f2 = get_free_page();
      if (f2 == kInvalidPfn) break;
      if (!ok(swap_.read_sequential(apte->swap, phys_.frame(f2)))) {
        put_page(f2);  // speculative read failed: abandon the read-ahead run
        break;
      }
      swap_.free(apte->swap);
      apte->swap = kInvalidSwapSlot;
      apte->present = true;
      apte->pfn = f2;
      apte->writable = false;  // regain write access lazily
      apte->cow = false;
      apte->accessed = false;  // speculative: still first in line to evict
      ++t.mm.rss;
      ++stats_.pages_swapped_in;
      ++stats_.readahead_pages;
    }
    return KStatus::Ok;
  }

  // Minor fault: demand-zero anonymous page.
  const Pfn fresh = get_free_page();
  if (fresh == kInvalidPfn) return KStatus::NoMem;
  phys_.zero_frame(fresh);
  clock_.advance(costs_.zero_page);
  pte.present = true;
  pte.pfn = fresh;
  pte.writable = write && has(vma->flags, VmFlag::Write);
  pte.cow = false;
  pte.accessed = true;
  ++t.mm.rss;
  ++stats_.minor_faults;
  trace_.record(clock_.now(), TraceEvent::MinorFault, t.pid, page_addr, fresh);
  return KStatus::Ok;
}

KStatus Kernel::shm_fault(Task& t, const Vma& vma, VAddr page_addr, Pte& pte,
                          bool /*write*/) {
  ShmSegment& seg = shms_[vma.shm];
  if (!seg.alive) {
    ++stats_.segv;
    return KStatus::Fault;
  }
  const auto idx = static_cast<std::size_t>(vma.shm_pgoff) +
                   static_cast<std::size_t>((page_addr - vma.start) >> kPageShift);
  assert(idx < seg.frames.size());
  if (seg.frames[idx] == kInvalidPfn) {
    // First toucher anywhere: allocate and zero; the segment itself holds
    // the allocation reference so the frame outlives any single attacher.
    const Pfn fresh = get_free_page();
    if (fresh == kInvalidPfn) return KStatus::NoMem;
    phys_.zero_frame(fresh);
    clock_.advance(costs_.zero_page);
    seg.frames[idx] = fresh;
  }
  const Pfn pfn = seg.frames[idx];
  get_page(pfn);  // this mapping's reference
  pte.present = true;
  pte.pfn = pfn;
  pte.writable = has(vma.flags, VmFlag::Write);
  pte.cow = false;
  pte.accessed = true;
  ++t.mm.rss;
  ++stats_.minor_faults;
  trace_.record(clock_.now(), TraceEvent::MinorFault, t.pid, page_addr, pfn);
  return KStatus::Ok;
}

KStatus Kernel::access_range(Pid pid, VAddr addr, std::uint64_t len,
                             Access access, std::span<const std::byte> src,
                             std::span<std::byte> dst) {
  Task* const tp = find_task(pid);
  if (tp == nullptr) return KStatus::NoEnt;
  if (len == 0) return KStatus::Ok;
  Task& t = *tp;

  std::uint64_t done = 0;
  while (done < len) {
    const VAddr at = addr + done;
    const VAddr page_addr = page_align_down(at);
    const std::uint64_t in_page =
        std::min(len - done, kPageSize - (at - page_addr));

    Pte* pte = t.mm.pt.walk(page_addr);
    if (needs_fault(pte, access == Access::Write)) {
      const KStatus st = handle_fault(t, page_addr, access);
      if (!ok(st)) return st;
      pte = t.mm.pt.walk(page_addr);
      assert(pte && pte->present);
    }
    pte->accessed = true;

    auto frame = phys_.frame(pte->pfn);
    const std::uint64_t off = at - page_addr;
    if (!src.empty()) {
      std::memcpy(frame.data() + off, src.data() + done, in_page);
      clock_.advance(costs_.copy(in_page));
    } else if (!dst.empty()) {
      std::memcpy(dst.data() + done, frame.data() + off, in_page);
      clock_.advance(costs_.copy(in_page));
    } else {
      clock_.advance(costs_.mem_touch);
    }
    done += in_page;
  }
  return KStatus::Ok;
}

KStatus Kernel::write_user(Pid pid, VAddr addr, std::span<const std::byte> data) {
  return access_range(pid, addr, data.size(), Access::Write, data, {});
}

KStatus Kernel::read_user(Pid pid, VAddr addr, std::span<std::byte> out) {
  return access_range(pid, addr, out.size(), Access::Read, {}, out);
}

KStatus Kernel::touch(Pid pid, VAddr addr, bool write) {
  return access_range(pid, addr, 1, write ? Access::Write : Access::Read, {}, {});
}

KStatus Kernel::copy_user(Pid pid, VAddr dst, VAddr src, std::uint64_t len) {
  Task* const tp = find_task(pid);
  if (tp == nullptr) return KStatus::NoEnt;
  Task& t = *tp;
  std::uint64_t done = 0;
  while (done < len) {
    const VAddr s = src + done;
    const VAddr d = dst + done;
    const VAddr s_page = page_align_down(s);
    const VAddr d_page = page_align_down(d);
    const std::uint64_t chunk =
        std::min({len - done, kPageSize - (s - s_page), kPageSize - (d - d_page)});

    Pte* spte = t.mm.pt.walk(s_page);
    if (needs_fault(spte, /*write=*/false)) {
      const KStatus st = handle_fault(t, s_page, Access::Read);
      if (!ok(st)) return st;
      spte = t.mm.pt.walk(s_page);
    }
    Pte* dpte = t.mm.pt.walk(d_page);
    if (needs_fault(dpte, /*write=*/true)) {
      const KStatus st = handle_fault(t, d_page, Access::Write);
      if (!ok(st)) return st;
      dpte = t.mm.pt.walk(d_page);
      spte = t.mm.pt.walk(s_page);  // COW break may have moved things
    }
    assert(spte && spte->present && dpte && dpte->present);
    spte->accessed = true;
    dpte->accessed = true;

    auto sf = phys_.frame(spte->pfn);
    auto df = phys_.frame(dpte->pfn);
    std::memmove(df.data() + (d - d_page), sf.data() + (s - s_page), chunk);
    clock_.advance(costs_.copy(chunk));
    done += chunk;
  }
  return KStatus::Ok;
}

KStatus Kernel::make_present(Pid pid, VAddr addr, bool write) {
  Task* const tp = find_task(pid);
  if (tp == nullptr) return KStatus::NoEnt;
  Task& t = *tp;
  const VAddr page_addr = page_align_down(addr);
  Pte* pte = t.mm.pt.walk(page_addr);
  if (!needs_fault(pte, write)) return KStatus::Ok;
  return handle_fault(t, page_addr, write ? Access::Write : Access::Read);
}

}  // namespace vialock::simkern
