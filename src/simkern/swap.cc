#include "simkern/swap.h"

#include <cassert>
#include <cstring>

namespace vialock::simkern {

SwapSlot SwapDevice::alloc() {
  if (free_slots_.empty()) return kInvalidSwapSlot;
  // Next-fit: the first free slot at or after the hint, wrapping to the
  // lowest free slot - the same slot the legacy linear scan would pick.
  auto it = free_slots_.lower_bound(scan_hint_);
  if (it == free_slots_.end()) it = free_slots_.begin();
  const SwapSlot slot = *it;
  free_slots_.erase(it);
  map_[slot] = 1;
  ++used_;
  scan_hint_ = (slot + 1) % static_cast<std::uint32_t>(map_.size());
  return slot;
}

void SwapDevice::dup(SwapSlot slot) {
  assert(slot < map_.size() && map_[slot] > 0);
  ++map_[slot];
}

void SwapDevice::free(SwapSlot slot) {
  assert(slot < map_.size() && map_[slot] > 0);
  if (--map_[slot] == 0) {
    --used_;
    free_slots_.insert(slot);
  }
}

KStatus SwapDevice::apply_faults(fault::FaultSite site,
                                 std::span<std::byte> data) {
  if (!faults_) return KStatus::Ok;
  const auto decision = faults_->check(site);
  if (!decision) return KStatus::Ok;
  switch (decision->action) {
    case fault::FaultAction::Fail:
    case fault::FaultAction::Drop:
      // A dropped disk transfer surfaces the same way as a failed one: the
      // request completes with an error and no data moved.
      ++io_errors_;
      return KStatus::Io;
    case fault::FaultAction::Delay:
      ++io_delays_;
      clock_.advance(decision->delay);
      return KStatus::Ok;
    case fault::FaultAction::Corrupt: {
      ++io_corruptions_;
      const std::size_t pos = decision->entropy % data.size();
      data[pos] ^= static_cast<std::byte>(decision->corrupt_mask);
      return KStatus::Ok;
    }
  }
  return KStatus::Ok;
}

KStatus SwapDevice::write(SwapSlot slot, std::span<const std::byte> page) {
  assert(slot < map_.size() && page.size() == kPageSize);
  clock_.advance(costs_.swap_io(kPageSize));
  std::byte* stored = slot_bytes(slot);
  std::memcpy(stored, page.data(), kPageSize);
  ++writes_;
  // Corruption lands in the slot's stored bytes: the damage is latent until
  // the page is swapped back in - exactly a silent media error.
  return apply_faults(fault::FaultSite::SwapWrite, {stored, kPageSize});
}

KStatus SwapDevice::read(SwapSlot slot, std::span<std::byte> page) {
  assert(slot < map_.size() && page.size() == kPageSize);
  clock_.advance(costs_.swap_io(kPageSize));
  std::memcpy(page.data(), slot_bytes(slot), kPageSize);
  // Read corruption damages only this transfer, not the stored copy; on an
  // injected error the buffer contents are undefined (caller must discard).
  return apply_faults(fault::FaultSite::SwapRead, page);
}

KStatus SwapDevice::read_sequential(SwapSlot slot, std::span<std::byte> page) {
  assert(slot < map_.size() && page.size() == kPageSize);
  clock_.advance(costs_.swap_per_byte * kPageSize);  // stream, no seek
  std::memcpy(page.data(), slot_bytes(slot), kPageSize);
  return apply_faults(fault::FaultSite::SwapRead, page);
}

}  // namespace vialock::simkern
