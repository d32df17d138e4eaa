// vmscan.cc - page reclaim: do_try_to_free_pages -> shrink_mmap -> swap_out,
// following the structure the paper lays out in section 2.2.
//
// The decisive details (all from the paper's text):
//   * shrink_mmap() runs a clock algorithm over the page map but "does not
//     touch user pages of a process": it frees only page-cache pages, and
//     this simulation has no page cache (DESIGN.md section 14.6). What is
//     left is its cost: each pass charges its scan budget to the clock and
//     to vm.clock_scanned before swap_out() is reached.
//   * swap_out() walks tasks' VMA lists. VMAs with VM_LOCKED are skipped
//     entirely - the hook mlock-based locking relies on.
//   * try_to_swap_out(): pages with PG_locked or PG_reserved are skipped -
//     the hook the Giganet-style driver relies on. Pages with an elevated
//     reference count are NOT skipped: the PTE is rewritten to a swap entry
//     and __free_page() is called; if a driver held an extra reference the
//     frame quietly survives, detached from the virtual page - the
//     Berkeley-VIA / M-VIA failure the locktest experiment demonstrates.
//   * Pages with pin_count > 0 (kiobuf pins) are skipped - this is the
//     contract of the paper's proposed mechanism.
#include <cassert>

#include "simkern/kernel.h"

namespace vialock::simkern {

namespace {
/// shrink_mmap scans a quarter of the page map per pass.
constexpr std::uint32_t kReclaimScanDivisor = 4;
}  // namespace

std::uint32_t Kernel::try_to_free_pages(std::uint32_t target) {
  ++stats_.reclaim_runs;
  const obs::ScopedSpan span(spans_, "simkern.try_to_free_pages");
  const VirtualStopwatch sw(clock_);
  // Like do_try_to_free_pages(): run shrink_mmap first, escalating its scan
  // until it has covered the whole page map twice (one ageing pass + one
  // freeing pass). shrink_mmap frees nothing here, so any nonzero target
  // pays both sweeps before the kernel resorts to swapping process pages.
  const std::uint32_t budget =
      std::max(1u, config_.frames / kReclaimScanDivisor);
  std::uint32_t scanned = 0;
  do {  // at least one pass, even for a zero target (kswapd tick)
    shrink_mmap(budget);
    scanned += budget;
  } while (target > 0 && scanned < 2 * config_.frames);
  // Cooperative reclaim: before swapping process pages, ask the pin-side
  // handlers (the PinGovernor) to give back cold pinned memory - deferred
  // deregistrations, idle cached registrations. What they release is not
  // free yet, but it becomes visible to the swap_out pass below.
  if (target > 0 && !pressure_handlers_.empty() && !in_pressure_callback_) {
    in_pressure_callback_ = true;
    ++stats_.pressure_callbacks;
    for (PressureHandler* h : pressure_handlers_) {
      stats_.pressure_pages_released += h->on_memory_pressure(target);
    }
    in_pressure_callback_ = false;
  }
  std::uint32_t freed = 0;
  while (freed < target) {
    const std::uint32_t n = swap_out(target - freed);
    if (n == 0) break;
    freed += n;
  }
  reclaim_ns_hist_->add(sw.elapsed());
  reclaim_freed_hist_->add(freed);
  return freed;
}

void Kernel::shrink_mmap(std::uint32_t budget) {
  // The clock scan visits `budget` page-map entries. The only pages it could
  // free are page-cache pages, and user (process) pages are never touched
  // here - "it does not touch user pages of a process"; those are left to
  // swap_out(). So a pass costs its scan and changes nothing else.
  clock_.advance(budget * costs_.reclaim_scan_page);
  stats_.clock_scanned += budget;
}

std::uint32_t Kernel::swap_out(std::uint32_t target) {
  if (tasks_.empty()) return 0;
  const obs::ScopedSpan span(spans_, "simkern.swap_out");
  std::uint32_t freed = 0;
  // Visit each task at most once per invocation, starting at the rotor.
  for (std::size_t i = 0; i < tasks_.size() && freed < target; ++i) {
    Task& t = *tasks_[swap_rotor_ % tasks_.size()];
    swap_rotor_ = (swap_rotor_ + 1) % tasks_.size();
    freed += swap_out_task(t, target - freed);
  }
  return freed;
}

std::uint32_t Kernel::swap_out_task(Task& t, std::uint32_t target) {
  std::uint32_t freed = 0;
  const auto vmas = t.mm.vmas.in_order();
  if (vmas.empty()) return 0;

  // One full pass over the address space, resuming at (and wrapping around)
  // the task's swap cursor, like task->swap_address in 2.2.
  const std::size_t nv = vmas.size();
  std::size_t start_idx = 0;
  for (std::size_t i = 0; i < nv; ++i) {
    if (vmas[i]->end > t.swap_cursor) {
      start_idx = i;
      break;
    }
  }

  for (std::size_t step = 0; step < nv && freed < target; ++step) {
    const Vma& vma = *vmas[(start_idx + step) % nv];
    if (has(vma.flags, VmFlag::Locked) || has(vma.flags, VmFlag::Io)) {
      stats_.swap_skip_vma_locked += vma.pages();
      continue;
    }
    if (has(vma.flags, VmFlag::Shared)) {
      // Shared segments are not swapped in this model (2.2's shm_swap path
      // is out of scope); their frames are multiply referenced anyway.
      continue;
    }
    VAddr v = vma.start;
    if (step == 0 && t.swap_cursor > vma.start && t.swap_cursor < vma.end) {
      v = t.swap_cursor;
    }
    for (; v < vma.end && freed < target; v += kPageSize) {
      clock_.advance(costs_.reclaim_scan_page);
      Pte* pte = t.mm.pt.walk(v);
      if (!pte || !pte->present) continue;
      Page& pg = phys_.page(pte->pfn);
      if (pg.reserved()) {
        ++stats_.swap_skip_reserved;
        continue;
      }
      if (pg.locked()) {
        ++stats_.swap_skip_page_locked;
        continue;
      }
      if (pg.pinned()) {
        ++stats_.swap_skip_pinned;  // the proposed mechanism's guarantee
        continue;
      }
      if (pte->cow) continue;  // COW-shared frames stay until broken
      if (pte->accessed) {
        pte->accessed = false;  // ageing: one round of grace for hot pages
        ++stats_.swap_skip_referenced;
        continue;
      }
      // try_to_swap_out(): write to swap, redirect the PTE, free the page.
      const SwapSlot slot = swap_.alloc();
      if (slot == kInvalidSwapSlot) {
        t.swap_cursor = v;
        return freed;  // swap partition full
      }
      if (!ok(swap_.write(slot, phys_.frame(pte->pfn)))) {
        // Injected swap-device write error: give the slot back and leave the
        // page resident; the scan moves on (kswapd would retry elsewhere).
        swap_.free(slot);
        t.swap_cursor = v + kPageSize;
        continue;
      }
      notify_invalidate(t.pid, v, pte->pfn);
      trace_.record(clock_.now(), TraceEvent::SwapOut, t.pid, v, pte->pfn);
      const Pfn old_pfn = pte->pfn;
      pte->present = false;
      pte->pfn = kInvalidPfn;
      pte->swap = slot;
      --t.mm.rss;
      ++stats_.pages_swapped_out;

      const bool was_last_ref = phys_.page(old_pfn).count == 1;
      put_page(old_pfn);  // __free_page(): only actually frees at count 0
      if (was_last_ref) ++freed;
      t.swap_cursor = v + kPageSize;
    }
  }
  if (freed < target) t.swap_cursor = 0;  // completed a full pass
  return freed;
}

}  // namespace vialock::simkern
