#include "simkern/swap.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace vialock::simkern {

SwapSlot SwapDevice::first_free_from(SwapSlot from) const {
  std::size_t word = from / 64;
  std::uint64_t bits = free_bits_[word] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++word == free_bits_.size()) return kInvalidSwapSlot;
    bits = free_bits_[word];
  }
  return static_cast<SwapSlot>(word * 64 + std::countr_zero(bits));
}

SwapSlot SwapDevice::alloc() {
  if (used_ == map_.size()) return kInvalidSwapSlot;
  // Next-fit: the first free slot at or after the hint, wrapping to the
  // lowest free slot - the same slot the legacy linear scan would pick.
  SwapSlot slot = first_free_from(scan_hint_);
  if (slot == kInvalidSwapSlot) slot = first_free_from(0);
  free_bits_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  map_[slot] = 1;
  ++used_;
  scan_hint_ = (slot + 1) % static_cast<std::uint32_t>(map_.size());
  return slot;
}

void SwapDevice::dup(SwapSlot slot) {
  assert(slot < map_.size() && map_[slot] > 0);
  if (map_[slot] < kSwapMapMax) ++map_[slot];
}

void SwapDevice::free(SwapSlot slot) {
  assert(slot < map_.size() && map_[slot] > 0);
  if (map_[slot] == kSwapMapMax) return;  // saturated: never freed
  if (--map_[slot] == 0) {
    --used_;
    free_bits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
}

std::vector<std::string> SwapDevice::self_check() const {
  std::vector<std::string> issues;
  std::uint64_t nonzero = 0;
  for (SwapSlot slot = 0; slot < map_.size(); ++slot) {
    if (map_[slot] != 0) ++nonzero;
    if (is_free(slot) != (map_[slot] == 0)) {
      issues.push_back("swap slot " + std::to_string(slot) + " free bit " +
                       std::to_string(is_free(slot)) + " with refcount " +
                       std::to_string(map_[slot]));
    }
  }
  if (nonzero != used_) {
    issues.push_back("swap used-slot drift: " + std::to_string(nonzero) +
                     " nonzero refcounts vs counter " + std::to_string(used_));
  }
  return issues;
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
