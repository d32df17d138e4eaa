// swap.h - the swap partition: swap map (per-slot refcounts) plus a simulated
// disk that really stores page contents and charges virtual seek/stream time.
//
// Slot lifecycle mirrors Linux's swap_map: a slot is allocated with count 1
// when try_to_swap_out() writes a page, duplicated when a swapped PTE is
// shared by fork, and released on swap-in or PTE teardown. A count that
// reaches kSwapMapMax sticks there and the slot is never freed, as 2.2's
// swap_duplicate()/swap_free() do with SWAP_MAP_MAX. Beside the counts sits
// one free bit per slot (set exactly when the count is 0), so finding a free
// slot is a word-at-a-time bitmap scan and the whole index costs 1/8 byte
// per slot.
//
// I/O is fallible: a FaultEngine (fault::FaultSite::SwapRead / SwapWrite)
// can fail a transfer with EIO, stretch it with an injected latency spike,
// or silently corrupt the page data - the 2000-era IDE failure modes the
// rest of the kernel has to survive.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "simkern/types.h"
#include "util/clock.h"
#include "util/cost_model.h"
#include "util/status.h"

namespace vialock::simkern {

/// A slot's reference count saturates here (2.2's SWAP_MAP_MAX): further
/// dup()s are not counted and free() never releases the slot.
inline constexpr std::uint16_t kSwapMapMax = 0x7fff;

class SwapDevice {
 public:
  SwapDevice(std::uint32_t num_slots, Clock& clock, const CostModel& costs)
      : map_(num_slots, 0),
        free_bits_((num_slots + 63) / 64, ~std::uint64_t{0}),
        slots_(num_slots),
        clock_(clock),
        costs_(costs) {
    if (num_slots % 64 != 0)  // no free bits past the last slot
      free_bits_.back() = (std::uint64_t{1} << (num_slots % 64)) - 1;
  }

  [[nodiscard]] std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(map_.size());
  }

  /// get_swap_page(): allocate a slot with refcount 1, or kInvalidSwapSlot.
  /// Next-fit: the first free slot at or after the scan hint, else the
  /// lowest free slot, found 64 slots per word of the free bitmap.
  [[nodiscard]] SwapSlot alloc();

  /// swap_duplicate(): another PTE now references this slot. Saturates at
  /// kSwapMapMax.
  void dup(SwapSlot slot);

  /// swap_free(): drop one reference; slot becomes reusable at zero. A
  /// saturated slot stays allocated.
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
  /// Audit the device's own bookkeeping: each free bit is set exactly when
  /// its count is 0, and used_slots() counts the nonzero counts. Returns
  /// one message per problem (empty when consistent). O(slots).
  [[nodiscard]] std::vector<std::string> self_check() const;
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

  [[nodiscard]] bool is_free(SwapSlot slot) const {
    return (free_bits_[slot / 64] >> (slot % 64)) & 1;
  }
  /// Lowest free slot at or after `from` (< num_slots()), or
  /// kInvalidSwapSlot.
  [[nodiscard]] SwapSlot first_free_from(SwapSlot from) const;

  std::vector<std::uint16_t> map_;        ///< per-slot reference counts
  std::vector<std::uint64_t> free_bits_;  ///< bit set <=> map_ count is 0
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
