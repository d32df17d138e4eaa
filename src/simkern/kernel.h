// kernel.h - facade over the simulated Linux 2.2/2.3 memory subsystem.
//
// Owns physical memory, the buddy allocator, the swap device and the task
// table, and implements the algorithms the paper's analysis rests on:
//   - demand paging / COW / swap-in fault handling        (mm.cc)
//   - page reclaim: shrink_mmap scan cost + swap_out      (vmscan.cc)
//   - mlock / munlock with capability checks              (mlock.cc)
//   - kiobuf map/unmap/lock                               (kiobuf.cc)
//   - task + mapping syscalls, kernel-I/O page locking    (kernel.cc)
//
// All entry points charge virtual time against the shared Clock and count
// events in KernelStats; none throw - fallible calls return KStatus.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "simkern/buddy.h"
#include "simkern/kiobuf.h"
#include "simkern/page.h"
#include "simkern/swap.h"
#include "simkern/task.h"
#include "simkern/types.h"
#include "util/clock.h"
#include "util/cost_model.h"
#include "util/status.h"
#include "util/trace.h"

namespace vialock::simkern {

struct KernelConfig {
  std::uint32_t frames = 4096;          ///< physical frames (4096 = 16 MB)
  std::uint32_t reserved_low = 64;      ///< low frames marked PG_reserved
  std::uint32_t swap_slots = 16384;     ///< swap partition size (64 MB)
  std::uint32_t free_pages_min = 16;    ///< reclaim watermark (freepages.min)
  std::uint32_t swap_cluster = 32;      ///< reclaim target per try_to_free_pages
  bool userdma_patch = false;  ///< User-DMA patch applied: sys_mlock skips the
                               ///< uid/capability check (paper section 3.2)
  /// Upper bound on frames pinned via kiobufs (0 = 3/4 of frames). Pinned
  /// memory is invisible to reclaim, so an unbounded pin budget would let
  /// one process wedge the whole machine.
  std::uint32_t max_pinned_frames = 0;
  /// Swap read-ahead (Linux page_cluster): on a major fault, up to this many
  /// *additional* adjacent swapped pages of the same VMA are read in the same
  /// disk pass (sequential, no extra seek). 0 disables read-ahead.
  std::uint32_t swap_readahead = 0;
};

struct KernelStats {
  std::uint64_t syscalls = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t cow_breaks = 0;
  std::uint64_t segv = 0;
  std::uint64_t pages_swapped_out = 0;
  std::uint64_t pages_swapped_in = 0;
  std::uint64_t readahead_pages = 0;          ///< swapped in speculatively
  std::uint64_t reclaim_runs = 0;
  std::uint64_t clock_scanned = 0;
  std::uint64_t pressure_callbacks = 0;       ///< cooperative-reclaim invocations
  std::uint64_t pressure_pages_released = 0;  ///< pages handlers made reclaimable
  std::uint64_t swap_skip_vma_locked = 0;
  std::uint64_t swap_skip_page_locked = 0;
  std::uint64_t swap_skip_reserved = 0;
  std::uint64_t swap_skip_pinned = 0;
  std::uint64_t swap_skip_referenced = 0;
  std::uint64_t oom_failures = 0;
  std::uint64_t mlock_calls = 0;
  std::uint64_t munlock_calls = 0;
  std::uint64_t kiobuf_maps = 0;
  std::uint64_t kiobuf_pages_pinned = 0;
  std::uint64_t kiobuf_pin_rejections = 0;    ///< maps refused at the pin budget
  std::uint64_t kiobuf_fault_rejections = 0;  ///< maps refused by injection
  // Hazard counters for the page-flag (Giganet-style) approach, experiment E7:
  std::uint64_t io_flag_collisions = 0;  ///< driver set PG_locked over live I/O
  std::uint64_t io_lock_clobbered = 0;   ///< PG_locked vanished during kernel I/O
  std::uint64_t io_page_stolen = 0;      ///< frame freed/remapped during kernel I/O
};

/// Observer of translation invalidations, the hook a U-Net/MM-style system
/// (NIC TLB kept consistent with the page tables, paper section 1) needs.
/// Fired whenever a present translation is torn down or replaced: swap-out,
/// munmap/exit, COW break.
class MmuNotifier {
 public:
  virtual ~MmuNotifier() = default;
  virtual void on_invalidate(Pid pid, VAddr vaddr, Pfn old_pfn) = 0;
};

/// Cooperative-reclaim hook (the shrinker registration of its era). When
/// try_to_free_pages falls short of its target after shrink_mmap's scan,
/// it asks registered handlers to release pinned memory - drain deferred
/// deregistrations, evict cold idle registration-cache entries - before the
/// kernel resorts to swapping hot process pages. Returns the number of pages
/// the handler un-pinned (now visible to swap_out), not pages freed.
class PressureHandler {
 public:
  virtual ~PressureHandler() = default;
  virtual std::uint32_t on_memory_pressure(std::uint32_t target_pages) = 0;
};

class Kernel {
 public:
  Kernel(const KernelConfig& config, Clock& clock, CostModel costs = {});

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- tasks -----------------------------------------------------------------
  [[nodiscard]] Pid create_task(std::string name,
                                Capability caps = Capability::None);
  /// fork(): clone the address space copy-on-write.
  [[nodiscard]] Pid fork_task(Pid parent);
  void exit_task(Pid pid);
  [[nodiscard]] Task& task(Pid pid);
  [[nodiscard]] const Task& task(Pid pid) const;
  [[nodiscard]] bool task_exists(Pid pid) const {
    return find_task(pid) != nullptr;
  }

  // --- mapping syscalls --------------------------------------------------------
  /// Anonymous private mmap; returns the chosen address.
  [[nodiscard]] std::optional<VAddr> sys_mmap_anon(Pid pid, std::uint64_t len,
                                                   VmFlag prot);
  [[nodiscard]] KStatus sys_munmap(Pid pid, VAddr addr, std::uint64_t len);
  /// madvise(MADV_DONTFORK / MADV_DOFORK): exclude [addr, addr+len) from (or
  /// re-include it in) fork inheritance - how real RDMA stacks keep a child
  /// from COW-sharing pinned DMA buffers.
  [[nodiscard]] KStatus sys_madvise_dontfork(Pid pid, VAddr addr,
                                             std::uint64_t len, bool dontfork);
  /// mprotect(2): change the access protection of [addr, addr+len). Dropping
  /// write access also write-protects the PTEs so the next store faults.
  [[nodiscard]] KStatus sys_mprotect(Pid pid, VAddr addr, std::uint64_t len,
                                     VmFlag prot);
  /// Map one page of device memory (frame `dev_pfn`, which must be reserved)
  /// into `pid` as a VM_IO mapping - how NIC doorbells reach user space.
  [[nodiscard]] std::optional<VAddr> map_device_page(Pid pid, Pfn dev_pfn,
                                                     VmFlag prot);

  // --- user memory access (drives the fault path) -----------------------------
  [[nodiscard]] KStatus write_user(Pid pid, VAddr addr,
                                   std::span<const std::byte> data);
  [[nodiscard]] KStatus read_user(Pid pid, VAddr addr, std::span<std::byte> out);
  /// Touch one page (read or write access) without moving data.
  [[nodiscard]] KStatus touch(Pid pid, VAddr addr, bool write);
  /// In-process user-to-user copy (one copy cost, faults both sides in).
  [[nodiscard]] KStatus copy_user(Pid pid, VAddr dst, VAddr src,
                                  std::uint64_t len);

  // --- System-V-style shared memory ----------------------------------------------
  /// shmget(IPC_CREAT): create a shared segment of `bytes` bytes.
  [[nodiscard]] ShmId shm_create(std::uint64_t bytes);
  /// shmat(): map the whole segment into `pid`; frames are allocated lazily
  /// on first touch by any attacher and then shared by all of them.
  [[nodiscard]] std::optional<VAddr> shm_attach(Pid pid, ShmId id);
  /// shmctl(IPC_RMID) + final detach: release the segment's frames. Live
  /// attachments keep their frames (their PTE references) until unmapped.
  [[nodiscard]] KStatus shm_destroy(ShmId id);

  // --- mlock family (mlock.cc) -------------------------------------------------
  /// sys_mlock: full syscall with CAP_IPC_LOCK + RLIMIT_MEMLOCK checks
  /// (skipped when KernelConfig::userdma_patch is set).
  [[nodiscard]] KStatus sys_mlock(Pid pid, VAddr addr, std::uint64_t len);
  [[nodiscard]] KStatus sys_munlock(Pid pid, VAddr addr, std::uint64_t len);
  /// do_mlock: the internal entry a driver may call directly (kernel export).
  [[nodiscard]] KStatus do_mlock(Pid pid, VAddr addr, std::uint64_t len,
                                 bool lock);
  void cap_raise(Pid pid, Capability cap);
  void cap_lower(Pid pid, Capability cap);

  // --- kiobufs (kiobuf.cc) -----------------------------------------------------
  [[nodiscard]] Kiobuf alloc_kiovec();
  [[nodiscard]] KStatus map_user_kiobuf(Pid pid, Kiobuf& iobuf, VAddr addr,
                                        std::uint64_t len);
  void unmap_kiobuf(Kiobuf& iobuf);
  /// Set PG_locked on all kiobuf pages (fails with Busy if any page is
  /// already locked for I/O).
  [[nodiscard]] KStatus lock_kiovec(Kiobuf& iobuf);
  void unlock_kiovec(Kiobuf& iobuf);

  // --- page-frame services (driver-visible kernel internals) -------------------
  /// get_free_page(): allocate one frame, reclaiming if below the watermark.
  [[nodiscard]] Pfn get_free_page();
  /// get_page(): elevate a frame's reference count (what Berkeley-VIA/M-VIA do).
  void get_page(Pfn pfn);
  /// __free_page(): drop a reference; frame returns to the buddy at zero.
  void put_page(Pfn pfn);
  /// Read the page tables: virtual -> physical for a present page. This is
  /// the operation mainline forbids drivers from doing (section 4.1); the
  /// refcount/pageflag policies use it deliberately to model those drivers.
  [[nodiscard]] std::optional<Pfn> resolve(Pid pid, VAddr addr) const;
  /// Fault a page in (if needed) so that resolve() succeeds; `write` selects
  /// write-access semantics (breaks COW).
  [[nodiscard]] KStatus make_present(Pid pid, VAddr addr, bool write);

  // --- reclaim (vmscan.cc) ------------------------------------------------------
  /// try_to_free_pages(): run shrink_mmap + swap_out until `target` frames
  /// were freed or the scan budget is exhausted. Returns frames freed.
  std::uint32_t try_to_free_pages(std::uint32_t target);

  // --- debugging / validation ----------------------------------------------------
  /// Whole-kernel consistency audit: page map vs. buddy accounting, RSS
  /// drift, PTE->frame sanity, swap-map reference counts, pin accounting.
  /// Returns human-readable descriptions of every violation (empty = clean).
  [[nodiscard]] std::vector<std::string> self_check() const;

  // --- MMU notifiers -------------------------------------------------------------
  void add_mmu_notifier(MmuNotifier* notifier);
  void remove_mmu_notifier(MmuNotifier* notifier);

  // --- cooperative reclaim handlers (vmscan.cc) ------------------------------------
  void add_pressure_handler(PressureHandler* handler);
  void remove_pressure_handler(PressureHandler* handler);

  // --- fault injection (src/fault) -----------------------------------------------
  /// Arm `engine` on every fallible kernel component (swap device, buddy
  /// allocator, kiobuf mapping); nullptr disarms. The engine must outlive
  /// the kernel or be disarmed first. While armed, the engine's per-site
  /// seen/injected counters export through metrics() as `fault.*`.
  void set_fault_engine(fault::FaultEngine* engine);

  // --- kernel I/O page locking (E7 hazard substrate) ----------------------------
  /// Begin simulated kernel I/O on the frame backing (pid, addr): sets
  /// PG_locked like ll_rw_block would. Fails with Busy if already locked.
  [[nodiscard]] KStatus start_kernel_io(Pfn pfn);
  /// Complete kernel I/O: clears PG_locked, detecting clobbered state.
  void end_kernel_io(Pfn pfn);

  // --- accessors -----------------------------------------------------------------
  [[nodiscard]] PhysicalMemory& phys() { return phys_; }
  [[nodiscard]] const PhysicalMemory& phys() const { return phys_; }
  [[nodiscard]] BuddyAllocator& buddy() { return buddy_; }
  [[nodiscard]] SwapDevice& swap() { return swap_; }
  [[nodiscard]] const SwapDevice& swap() const { return swap_; }
  [[nodiscard]] Clock& clock() { return clock_; }
  [[nodiscard]] const CostModel& costs() const { return costs_; }
  [[nodiscard]] const KernelStats& stats() const { return stats_; }
  [[nodiscard]] KernelStats& mutable_stats() { return stats_; }
  /// Event trace ring (disabled by default; `trace().enable(true)`).
  [[nodiscard]] TraceRing& trace() { return trace_; }
  /// Unified metric registry (DESIGN.md section 10). The kernel registers its
  /// own stats as the `simkern.*` source; every component built on this
  /// kernel (NIC, agent, governor, caches, channels) publishes here too.
  [[nodiscard]] obs::MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricRegistry& metrics() const { return metrics_; }
  /// Sim-clock span recorder, mirrored into trace(). Disabled by default;
  /// `spans().enable(true)` to arm, obs::chrome_trace(spans()) to export.
  [[nodiscard]] obs::SpanRecorder& spans() { return spans_; }
  [[nodiscard]] const obs::SpanRecorder& spans() const { return spans_; }
  /// Crash flight recorder (DESIGN.md section 11). flight().set_sink() arms
  /// it; flight_dump() is the trigger components call on terminal faults.
  [[nodiscard]] obs::FlightRecorder& flight() { return flight_; }
  [[nodiscard]] const obs::FlightRecorder& flight() const { return flight_; }
  /// Assemble and deliver a postmortem dump (no-op when no sink is armed, so
  /// un-instrumented runs pay nothing on failure paths).
  void flight_dump(std::string_view reason) {
    if (flight_.armed()) {
      flight_.dump(reason, spans_, trace_, metrics_.snapshot());
    }
  }
  [[nodiscard]] const KernelConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t free_frames() const { return buddy_.free_frames(); }
  /// Frames currently pinned (kiobuf pin accounting, deduplicated per frame).
  [[nodiscard]] std::uint32_t pinned_frames() const {
    return static_cast<std::uint32_t>(pinned_frames_);
  }
  /// Effective pin budget (config value, defaulting to 3/4 of RAM).
  [[nodiscard]] std::uint32_t pin_budget() const {
    return config_.max_pinned_frames ? config_.max_pinned_frames
                                     : config_.frames - config_.frames / 4;
  }

 private:
  // mm.cc
  enum class Access { Read, Write };
  [[nodiscard]] KStatus handle_fault(Task& t, VAddr vaddr, Access access);
  [[nodiscard]] KStatus access_range(Pid pid, VAddr addr, std::uint64_t len,
                                     Access access,
                                     std::span<const std::byte> src,
                                     std::span<std::byte> dst);
  void drop_pte(Task& t, VAddr vaddr, Pte& pte);

  /// The task for `pid`, or nullptr: one binary search where task_exists()
  /// followed by task() would take two.
  [[nodiscard]] Task* find_task(Pid pid) const {
    const auto it = std::ranges::lower_bound(
        tasks_, pid, {}, [](const auto& t) { return t->pid; });
    return it != tasks_.end() && (*it)->pid == pid ? it->get() : nullptr;
  }

  // vmscan.cc
  void shrink_mmap(std::uint32_t budget);
  std::uint32_t swap_out(std::uint32_t target);
  std::uint32_t swap_out_task(Task& t, std::uint32_t target);

  KernelConfig config_;
  Clock& clock_;
  CostModel costs_;
  PhysicalMemory phys_;
  BuddyAllocator buddy_;
  SwapDevice swap_;
  KernelStats stats_;
  TraceRing trace_{2048};
  obs::MetricRegistry metrics_;
  obs::SpanRecorder spans_{clock_};
  obs::FlightRecorder flight_;
  // Cached hot-path handles into metrics_ (vmscan instrumentation).
  obs::Histogram* reclaim_ns_hist_ = nullptr;
  obs::Histogram* reclaim_freed_hist_ = nullptr;
  fault::FaultEngine* faults_ = nullptr;

  /// Live tasks in pid order. Pids ascend and are never reused, so this is
  /// also creation order, the order the swap_out rotor visits.
  std::vector<std::unique_ptr<Task>> tasks_;
  Pid next_pid_ = 1;
  std::size_t swap_rotor_ = 0;   ///< which task swap_out visits next

  std::unordered_map<Pfn, std::uint8_t> inflight_io_;  ///< kernel I/O in progress
  std::uint64_t pinned_frames_ = 0;  ///< frames with pin_count > 0

  // kiobuf.cc internals: frame-deduplicated pin accounting.
  void account_pin(Pfn pfn);
  void account_unpin(Pfn pfn);

  void notify_invalidate(Pid pid, VAddr vaddr, Pfn old_pfn);
  std::vector<MmuNotifier*> mmu_notifiers_;
  std::vector<PressureHandler*> pressure_handlers_;
  bool in_pressure_callback_ = false;  ///< reclaim-from-reclaim recursion guard

  // Shared-memory segments (kernel.cc).
  struct ShmSegment {
    std::uint64_t bytes = 0;
    std::vector<Pfn> frames;  ///< kInvalidPfn until first touch
    bool alive = false;
  };
  std::vector<ShmSegment> shms_;

  // mm.cc: fault path for VM_SHARED mappings.
  [[nodiscard]] KStatus shm_fault(Task& t, const Vma& vma, VAddr page_addr,
                                  Pte& pte, bool write);
};

}  // namespace vialock::simkern
