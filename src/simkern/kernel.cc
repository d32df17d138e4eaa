// kernel.cc - task management, mapping syscalls, page-frame services and the
// kernel-I/O page locking used by the E7 hazard experiment.
#include "simkern/kernel.h"

#include <cassert>

namespace vialock::simkern {

Kernel::Kernel(const KernelConfig& config, Clock& clock, CostModel costs)
    : config_(config),
      clock_(clock),
      costs_(costs),
      phys_(config.frames),
      buddy_(phys_, config.reserved_low),
      swap_(config.swap_slots, clock, costs_) {
  spans_.mirror_to(&trace_);
  reclaim_ns_hist_ = &metrics_.histogram("simkern.vm.reclaim_ns");
  reclaim_freed_hist_ = &metrics_.histogram("simkern.vm.reclaim_freed_pages");
  metrics_.register_source("simkern", this, [this](obs::MetricSink& s) {
    s.counter("vm.syscalls", stats_.syscalls);
    s.counter("vm.minor_faults", stats_.minor_faults);
    s.counter("vm.major_faults", stats_.major_faults);
    s.counter("vm.cow_breaks", stats_.cow_breaks);
    s.counter("vm.pages_swapped_out", stats_.pages_swapped_out);
    s.counter("vm.pages_swapped_in", stats_.pages_swapped_in);
    s.counter("vm.reclaim_runs", stats_.reclaim_runs);
    s.counter("vm.clock_scanned", stats_.clock_scanned);
    s.counter("vm.pressure_callbacks", stats_.pressure_callbacks);
    s.counter("vm.pressure_pages_released", stats_.pressure_pages_released);
    s.counter("vm.swap_skip_pinned", stats_.swap_skip_pinned);
    s.counter("vm.oom_failures", stats_.oom_failures);
    s.counter("mlock.calls", stats_.mlock_calls);
    s.counter("kiobuf.maps", stats_.kiobuf_maps);
    s.counter("kiobuf.pages_pinned", stats_.kiobuf_pages_pinned);
    s.gauge("mem.free_frames", free_frames());
    s.gauge("mem.pinned_frames", pinned_frames());
  });
  metrics_.register_source("obs", this, [this](obs::MetricSink& s) {
    s.counter("spans.recorded", spans_.spans().size());
    s.gauge("spans.open", spans_.open_spans());
    s.counter("spans.dropped", spans_.dropped());
    s.counter("spans.unbalanced_closes", spans_.unbalanced_closes());
    s.counter("flight.dumps", flight_.dumps());
  });
}

void Kernel::set_fault_engine(fault::FaultEngine* engine) {
  if (faults_ && faults_ != engine) {
    metrics_.unregister_source("fault", faults_);
  }
  faults_ = engine;
  swap_.set_fault_engine(engine);
  buddy_.set_fault_engine(engine);
  if (engine) {
    metrics_.register_source("fault", engine, [engine](obs::MetricSink& s) {
      s.counter("injected_total", engine->stats().total_injected());
      for (std::size_t i = 0; i < fault::kNumFaultSites; ++i) {
        const auto site = static_cast<fault::FaultSite>(i);
        const std::string base(fault::to_string(site));
        s.counter(base + ".seen", engine->stats().events_seen[i]);
        s.counter(base + ".injected", engine->stats().faults_injected[i]);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

Pid Kernel::create_task(std::string name, Capability caps) {
  const Pid pid = next_pid_++;
  auto t = std::make_unique<Task>();
  t->pid = pid;
  t->name = std::move(name);
  t->caps = caps;
  tasks_.push_back(std::move(t));  // pids ascend: tasks_ stays sorted
  return pid;
}

Pid Kernel::fork_task(Pid parent) {
  Task& p = task(parent);
  const Pid pid = create_task(p.name + "-child", p.caps);
  Task& c = task(pid);
  c.rlimit_memlock = p.rlimit_memlock;

  p.mm.vmas.for_each([&](const Vma& vma) {
    if (has(vma.flags, VmFlag::DontFork)) return;  // MADV_DONTFORK
    const bool inserted = c.mm.vmas.insert(vma.start, vma.end, vma.flags);
    assert(inserted);
    (void)inserted;
    Vma* child_vma = c.mm.vmas.find(vma.start);  // keep shm backing intact
    child_vma->shm = vma.shm;
    child_vma->shm_pgoff = vma.shm_pgoff;
    clock_.advance(costs_.vma_op);

    const bool private_writable =
        has(vma.flags, VmFlag::Write) && !has(vma.flags, VmFlag::Shared);
    p.mm.pt.for_each_in(vma.start, vma.end, [&](VAddr v, Pte& ppte) {
      clock_.advance(costs_.pte_walk_level * 2);
      Pte& cpte = c.mm.pt.ensure(v);
      if (ppte.present) {
        if (private_writable) {
          ppte.cow = true;
          ppte.writable = false;
        }
        cpte = ppte;
        get_page(ppte.pfn);
        ++c.mm.rss;
      } else if (ppte.swap != kInvalidSwapSlot) {
        swap_.dup(ppte.swap);
        cpte = ppte;
      }
    });
  });
  return pid;
}

void Kernel::exit_task(Pid pid) {
  Task& t = task(pid);
  t.mm.vmas.for_each([&](const Vma& vma) {
    t.mm.pt.clear_range(vma.start, vma.end,
                        [&](VAddr v, Pte& pte) { drop_pte(t, v, pte); });
  });
  std::erase_if(tasks_, [pid](const auto& p) { return p->pid == pid; });
}

Task& Kernel::task(Pid pid) {
  Task* const t = find_task(pid);
  assert(t != nullptr && "no such task");
  return *t;
}

const Task& Kernel::task(Pid pid) const {
  const Task* const t = find_task(pid);
  assert(t != nullptr && "no such task");
  return *t;
}

// ---------------------------------------------------------------------------
// Mapping syscalls
// ---------------------------------------------------------------------------

std::optional<VAddr> Kernel::sys_mmap_anon(Pid pid, std::uint64_t len,
                                           VmFlag prot) {
  ++stats_.syscalls;
  clock_.advance(costs_.syscall);
  Task* const tp = find_task(pid);
  if (len == 0 || tp == nullptr) return std::nullopt;
  Task& t = *tp;
  const std::uint64_t alen = page_align_up(len);
  const auto addr =
      t.mm.vmas.find_free_range(alen, t.mm.mmap_base, PageTable::kUserTop);
  if (!addr) return std::nullopt;
  const bool inserted = t.mm.vmas.insert(*addr, *addr + alen, prot);
  assert(inserted);
  (void)inserted;
  clock_.advance(costs_.vma_op);
  return addr;
}

KStatus Kernel::sys_munmap(Pid pid, VAddr addr, std::uint64_t len) {
  ++stats_.syscalls;
  clock_.advance(costs_.syscall);
  Task* const tp = find_task(pid);
  if (tp == nullptr) return KStatus::NoEnt;
  if (len == 0 || (addr & kPageMask) != 0) return KStatus::Inval;
  Task& t = *tp;
  const VAddr end = page_align_up(addr + len);
  t.mm.pt.clear_range(addr, end,
                      [&](VAddr v, Pte& pte) { drop_pte(t, v, pte); });
  const std::uint32_t ops = t.mm.vmas.remove_range(addr, end);
  clock_.advance(costs_.vma_op * ops);
  return KStatus::Ok;
}

KStatus Kernel::sys_mprotect(Pid pid, VAddr addr, std::uint64_t len,
                             VmFlag prot) {
  ++stats_.syscalls;
  clock_.advance(costs_.syscall);
  Task* const tp = find_task(pid);
  if (tp == nullptr) return KStatus::NoEnt;
  if (len == 0) return KStatus::Inval;
  Task& t = *tp;
  const VAddr start = page_align_down(addr);
  const VAddr end = page_align_up(addr + len);
  std::uint32_t ops = 0;
  const VmFlag rw = VmFlag::Read | VmFlag::Write;
  const bool covered =
      t.mm.vmas.set_flags_range(start, end, prot & rw, rw & ~prot, &ops);
  clock_.advance(costs_.vma_op * ops);
  if (!covered) return KStatus::NoMem;
  if (!has(prot, VmFlag::Write)) {
    // Write-protect existing PTEs so the hardware faults on the next store.
    t.mm.pt.for_each_in(start, end, [&](VAddr, Pte& pte) {
      if (pte.present) pte.writable = false;
      clock_.advance(costs_.pte_walk_level);
    });
  }
  return KStatus::Ok;
}

std::optional<VAddr> Kernel::map_device_page(Pid pid, Pfn dev_pfn,
                                             VmFlag prot) {
  ++stats_.syscalls;
  clock_.advance(costs_.syscall);
  Task* const tp = find_task(pid);
  if (tp == nullptr || !phys_.valid(dev_pfn)) return std::nullopt;
  if (!phys_.page(dev_pfn).reserved()) return std::nullopt;  // devices only
  Task& t = *tp;
  const auto addr =
      t.mm.vmas.find_free_range(kPageSize, t.mm.mmap_base, PageTable::kUserTop);
  if (!addr) return std::nullopt;
  const bool inserted =
      t.mm.vmas.insert(*addr, *addr + kPageSize, prot | VmFlag::Io);
  assert(inserted);
  (void)inserted;
  Pte& pte = t.mm.pt.ensure(*addr);
  pte.present = true;
  pte.pfn = dev_pfn;
  pte.writable = has(prot, VmFlag::Write);
  // Note: reserved frames carry a permanent reference; no get_page here, and
  // drop_pte's put_page is balanced by reserved pages never reaching 0...
  get_page(dev_pfn);  // ...still take one so teardown stays symmetric.
  ++t.mm.rss;
  return addr;
}

KStatus Kernel::sys_madvise_dontfork(Pid pid, VAddr addr, std::uint64_t len,
                                     bool dontfork) {
  ++stats_.syscalls;
  clock_.advance(costs_.syscall);
  Task* const tp = find_task(pid);
  if (tp == nullptr) return KStatus::NoEnt;
  if (len == 0) return KStatus::Inval;
  Task& t = *tp;
  const VAddr start = page_align_down(addr);
  const VAddr end = page_align_up(addr + len);
  std::uint32_t ops = 0;
  const bool covered = t.mm.vmas.set_flags_range(
      start, end, dontfork ? VmFlag::DontFork : VmFlag::None,
      dontfork ? VmFlag::None : VmFlag::DontFork, &ops);
  clock_.advance(costs_.vma_op * ops);
  return covered ? KStatus::Ok : KStatus::NoMem;
}

void Kernel::drop_pte(Task& t, VAddr vaddr, Pte& pte) {
  if (pte.present) {
    notify_invalidate(t.pid, vaddr, pte.pfn);
    put_page(pte.pfn);
    --t.mm.rss;
  } else if (pte.swap != kInvalidSwapSlot) {
    swap_.free(pte.swap);
  }
}

void Kernel::add_mmu_notifier(MmuNotifier* notifier) {
  mmu_notifiers_.push_back(notifier);
}

void Kernel::remove_mmu_notifier(MmuNotifier* notifier) {
  std::erase(mmu_notifiers_, notifier);
}

void Kernel::notify_invalidate(Pid pid, VAddr vaddr, Pfn old_pfn) {
  for (MmuNotifier* n : mmu_notifiers_) n->on_invalidate(pid, vaddr, old_pfn);
}

void Kernel::add_pressure_handler(PressureHandler* handler) {
  pressure_handlers_.push_back(handler);
}

void Kernel::remove_pressure_handler(PressureHandler* handler) {
  std::erase(pressure_handlers_, handler);
}

// ---------------------------------------------------------------------------
// Page-frame services
// ---------------------------------------------------------------------------

Pfn Kernel::get_free_page() {
  if (buddy_.free_frames() <= config_.free_pages_min) {
    (void)try_to_free_pages(config_.swap_cluster);
  }
  Pfn pfn = buddy_.alloc(0);
  if (pfn == kInvalidPfn) {
    (void)try_to_free_pages(config_.swap_cluster);
    pfn = buddy_.alloc(0);
  }
  if (pfn == kInvalidPfn) {
    ++stats_.oom_failures;
    return kInvalidPfn;
  }
  clock_.advance(costs_.page_alloc);
  return pfn;
}

void Kernel::get_page(Pfn pfn) {
  assert(phys_.valid(pfn) && phys_.page(pfn).count > 0);
  phys_.get(pfn);
}

void Kernel::put_page(Pfn pfn) {
  Page& pg = phys_.page(pfn);
  assert(pg.count > 0 && "put_page on free frame");
  if (--pg.count == 0) buddy_.free(pfn, 0);
}

std::optional<Pfn> Kernel::resolve(Pid pid, VAddr addr) const {
  const Task* const t = find_task(pid);
  if (t == nullptr) return std::nullopt;
  const Pte* pte = t->mm.pt.walk(page_align_down(addr));
  if (!pte || !pte->present) return std::nullopt;
  return pte->pfn;
}

// ---------------------------------------------------------------------------
// System-V-style shared memory
// ---------------------------------------------------------------------------

ShmId Kernel::shm_create(std::uint64_t bytes) {
  ++stats_.syscalls;
  clock_.advance(costs_.syscall);
  if (bytes == 0) return kInvalidShm;
  ShmSegment seg;
  seg.bytes = page_align_up(bytes);
  seg.frames.assign(seg.bytes >> kPageShift, kInvalidPfn);
  seg.alive = true;
  shms_.push_back(std::move(seg));
  return static_cast<ShmId>(shms_.size() - 1);
}

std::optional<VAddr> Kernel::shm_attach(Pid pid, ShmId id) {
  ++stats_.syscalls;
  clock_.advance(costs_.syscall);
  Task* const tp = find_task(pid);
  if (tp == nullptr || id >= shms_.size() || !shms_[id].alive)
    return std::nullopt;
  Task& t = *tp;
  const std::uint64_t bytes = shms_[id].bytes;
  const auto addr =
      t.mm.vmas.find_free_range(bytes, t.mm.mmap_base, PageTable::kUserTop);
  if (!addr) return std::nullopt;
  const bool inserted = t.mm.vmas.insert(
      *addr, *addr + bytes, VmFlag::Read | VmFlag::Write | VmFlag::Shared);
  assert(inserted);
  (void)inserted;
  t.mm.vmas.find(*addr)->shm = id;
  clock_.advance(costs_.vma_op);
  return addr;
}

KStatus Kernel::shm_destroy(ShmId id) {
  ++stats_.syscalls;
  clock_.advance(costs_.syscall);
  if (id >= shms_.size() || !shms_[id].alive) return KStatus::NoEnt;
  ShmSegment& seg = shms_[id];
  for (Pfn& pfn : seg.frames) {
    if (pfn != kInvalidPfn) {
      put_page(pfn);  // the segment's own reference
      pfn = kInvalidPfn;
    }
  }
  seg.alive = false;
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// Self-check: global accounting audit
// ---------------------------------------------------------------------------

std::vector<std::string> Kernel::self_check() const {
  std::vector<std::string> issues;
  auto complain = [&](std::string msg) { issues.push_back(std::move(msg)); };

  // Page map vs. buddy: free frames agree; free frames carry no pins.
  std::uint32_t free_by_map = 0;
  std::uint32_t pinned_by_map = 0;
  for (Pfn pfn = 0; pfn < phys_.num_frames(); ++pfn) {
    const Page& pg = phys_.page(pfn);
    if (pg.free()) {
      ++free_by_map;
      if (pg.pinned())
        complain("frame " + std::to_string(pfn) + " free but pinned");
    } else if (pg.pinned()) {
      ++pinned_by_map;
    }
  }
  if (free_by_map != buddy_.free_frames()) {
    complain("free-frame mismatch: page map " + std::to_string(free_by_map) +
             " vs buddy " + std::to_string(buddy_.free_frames()));
  }
  if (pinned_by_map != pinned_frames_) {
    complain("pin accounting drift: page map " + std::to_string(pinned_by_map) +
             " vs counter " + std::to_string(pinned_frames_));
  }

  // Per-task: RSS, PTE sanity, swap references.
  std::unordered_map<SwapSlot, std::uint32_t> slot_refs;
  for (const auto& tp : tasks_) {
    const Task& t = *tp;
    const Pid pid = t.pid;
    std::uint64_t rss = 0;
    // for_each_in is non-const; walk via a const copy of the VMA list.
    t.mm.vmas.for_each([&](const Vma& vma) {
      for (VAddr v = vma.start; v < vma.end; v += kPageSize) {
        const Pte* pte = t.mm.pt.walk(v);
        if (!pte || pte->none()) continue;
        if (pte->present) {
          ++rss;
          if (!phys_.valid(pte->pfn) || phys_.page(pte->pfn).free()) {
            complain("pid " + std::to_string(pid) + " maps freed frame at 0x" +
                     std::to_string(v));
          }
        } else {
          ++slot_refs[pte->swap];
        }
      }
    });
    if (rss != t.mm.rss) {
      complain("pid " + std::to_string(pid) + " rss drift: counted " +
               std::to_string(rss) + " vs " + std::to_string(t.mm.rss));
    }
  }
  // Every swap reference is a PTE, so each slot's count must equal its PTE
  // references (a saturated count no longer tracks them) and no slot may be
  // held that no PTE names.
  for (const auto& [slot, refs] : slot_refs) {
    const std::uint32_t count = swap_.refcount(slot);
    if (count != refs && count != kSwapMapMax) {
      complain("swap slot " + std::to_string(slot) + " misaccounted: " +
               std::to_string(count) + " != " + std::to_string(refs));
    }
  }
  if (swap_.used_slots() != slot_refs.size()) {
    complain("swap slots leaked: " + std::to_string(swap_.used_slots()) +
             " in use vs " + std::to_string(slot_refs.size()) +
             " referenced by PTEs");
  }
  for (std::string& msg : swap_.self_check()) complain(std::move(msg));
  return issues;
}

// ---------------------------------------------------------------------------
// Kernel I/O page locking (ll_rw_block-style), hazard substrate for E7
// ---------------------------------------------------------------------------

KStatus Kernel::start_kernel_io(Pfn pfn) {
  if (!phys_.valid(pfn)) return KStatus::Inval;
  Page& pg = phys_.page(pfn);
  if (pg.locked()) return KStatus::Busy;
  pg.flags |= PageFlag::Locked;
  inflight_io_[pfn] = 1;
  trace_.record(clock_.now(), TraceEvent::KernelIoStart, 0, 0, pfn);
  return KStatus::Ok;
}

void Kernel::end_kernel_io(Pfn pfn) {
  auto it = inflight_io_.find(pfn);
  if (it == inflight_io_.end()) return;
  inflight_io_.erase(it);
  Page& pg = phys_.page(pfn);
  if (!pg.locked()) {
    // Someone (a page-flag-style driver) cleared PG_locked under our I/O.
    ++stats_.io_lock_clobbered;
  } else {
    pg.flags &= ~PageFlag::Locked;
  }
  if (pg.free()) {
    // The frame was reclaimed while the I/O was (supposedly) in flight.
    ++stats_.io_page_stolen;
  }
  trace_.record(clock_.now(), TraceEvent::KernelIoEnd, 0, 0, pfn);
}

}  // namespace vialock::simkern
