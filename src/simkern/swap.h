// swap.h - the swap partition: swap map (per-slot refcounts) plus a simulated
// disk that really stores page contents and charges virtual seek/stream time.
//
// Slot lifecycle mirrors Linux's swap_map: a slot is allocated with count 1
// when try_to_swap_out() writes a page, duplicated when a swapped PTE is
// shared by fork, and released on swap-in or PTE teardown.
//
// I/O is fallible: a FaultEngine (fault::FaultSite::SwapRead / SwapWrite)
// can fail a transfer with EIO, stretch it with an injected latency spike,
// or silently corrupt the page data - the 2000-era IDE failure modes the
// rest of the kernel has to survive.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "simkern/types.h"
#include "util/clock.h"
#include "util/cost_model.h"
#include "util/status.h"

namespace vialock::simkern {

class SwapDevice {
 public:
  SwapDevice(std::uint32_t num_slots, Clock& clock, const CostModel& costs)
      : map_(num_slots, 0), slots_(num_slots), clock_(clock), costs_(costs) {
    for (SwapSlot s = 0; s < num_slots; ++s)
      free_slots_.insert(free_slots_.end(), s);  // ascending: O(1) each
  }

  [[nodiscard]] std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(map_.size());
  }

  /// get_swap_page(): allocate a slot with refcount 1, or kInvalidSwapSlot.
  /// Next-fit from the scan hint over an ordered free-slot set, O(log slots)
  /// per call instead of the legacy O(slots) map scan; placements identical.
  [[nodiscard]] SwapSlot alloc();

  /// swap_duplicate(): another PTE now references this slot.
  void dup(SwapSlot slot);

  /// swap_free(): drop one reference; slot becomes reusable at zero.
  void free(SwapSlot slot);

  [[nodiscard]] std::uint32_t refcount(SwapSlot slot) const { return map_[slot]; }

  /// rw_swap_page(WRITE): store a page, charging disk time. Io on injected
  /// device error (nothing stored).
  [[nodiscard]] KStatus write(SwapSlot slot, std::span<const std::byte> page);

  /// rw_swap_page(READ): load a page, charging disk time. Io on injected
  /// device error (`page` contents undefined; caller must discard).
  [[nodiscard]] KStatus read(SwapSlot slot, std::span<std::byte> page);

  /// Sequential follow-up read in the same disk pass (read-ahead): charges
  /// streaming time only, no seek.
  [[nodiscard]] KStatus read_sequential(SwapSlot slot,
                                        std::span<std::byte> page);

  /// Arm fault injection (sites SwapRead / SwapWrite); nullptr disarms.
  void set_fault_engine(fault::FaultEngine* engine) { faults_ = engine; }

  [[nodiscard]] std::uint32_t used_slots() const {
    return static_cast<std::uint32_t>(used_);
  }
  [[nodiscard]] std::uint64_t total_writes() const { return writes_; }
  [[nodiscard]] std::uint64_t io_errors() const { return io_errors_; }
  [[nodiscard]] std::uint64_t io_delays() const { return io_delays_; }
  [[nodiscard]] std::uint64_t io_corruptions() const { return io_corruptions_; }

 private:
  /// Consult the fault engine before moving data; Ok means proceed (any
  /// injected delay already charged), Io means the transfer failed. Corrupt
  /// flips one deterministic byte of `data` after the caller's copy.
  [[nodiscard]] KStatus apply_faults(fault::FaultSite site,
                                     std::span<std::byte> data);

  /// A slot's stored bytes, allocated on first write - an idle swap
  /// partition costs nothing in the hosting process, which is what lets a
  /// scenario run size hundreds of per-host swap devices. A never-written
  /// slot reads as zeros (a fresh partition reads as zeros too).
  [[nodiscard]] std::byte* slot_bytes(SwapSlot slot) {
    if (!slots_[slot]) slots_[slot] = std::make_unique<std::byte[]>(kPageSize);
    return slots_[slot].get();
  }

  std::vector<std::uint16_t> map_;   ///< per-slot reference counts
  std::set<SwapSlot> free_slots_;    ///< ordered index of zero-refcount slots
  std::vector<std::unique_ptr<std::byte[]>> slots_;  ///< lazy stored pages
  Clock& clock_;
  const CostModel& costs_;
  fault::FaultEngine* faults_ = nullptr;
  std::uint64_t used_ = 0;
  std::uint32_t scan_hint_ = 0;  ///< next-fit allocation cursor
  std::uint64_t writes_ = 0;
  std::uint64_t io_errors_ = 0;
  std::uint64_t io_delays_ = 0;
  std::uint64_t io_corruptions_ = 0;
};

}  // namespace vialock::simkern
