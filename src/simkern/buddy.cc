#include "simkern/buddy.h"

#include <algorithm>
#include <cassert>

namespace vialock::simkern {

BuddyAllocator::BuddyAllocator(PhysicalMemory& mem, std::uint32_t reserved_low)
    : mem_(mem), state_(mem.num_frames()) {
  for (Pfn pfn = 0; pfn < reserved_low && pfn < mem_.num_frames(); ++pfn) {
    mem_.page(pfn).flags |= PageFlag::Reserved;
    mem_.page(pfn).count = 1;  // reserved pages are permanently "in use"
  }
  // Seed free lists with maximal naturally-aligned blocks.
  Pfn pfn = reserved_low;
  while (pfn < mem_.num_frames()) {
    std::uint32_t order = kMaxOrder;
    while (order > 0 &&
           ((pfn & ((1U << order) - 1)) != 0 ||
            pfn + (1U << order) > mem_.num_frames())) {
      --order;
    }
    push_free(pfn, order);
    total_frames_ += 1U << order;
    pfn += 1U << order;
  }
  free_frames_ = total_frames_;
}

Pfn BuddyAllocator::alloc(std::uint32_t order) {
  assert(order <= kMaxOrder);
  if (faults_) {
    if (const auto d = faults_->check(fault::FaultSite::BuddyAlloc);
        d && d->action == fault::FaultAction::Fail) {
      ++injected_failures_;
      return kInvalidPfn;  // as if memory were exhausted; callers reclaim
    }
  }
  std::uint32_t o = order;
  while (o <= kMaxOrder && free_lists_[o].empty()) ++o;
  if (o > kMaxOrder) return kInvalidPfn;

  Pfn pfn = free_lists_[o].back();
  free_lists_[o].pop_back();
  state_[pfn].free = false;

  // Split down to the requested order, returning upper halves to free lists.
  while (o > order) {
    --o;
    const Pfn buddy = pfn + (1U << o);
    push_free(buddy, o);
  }

  const std::uint32_t n = 1U << order;
  for (Pfn f = pfn; f < pfn + n; ++f) {
    assert(mem_.page(f).count == 0);
    mem_.page(f).count = 1;
    mem_.page(f).flags &= ~PageFlag::Locked;
  }
  free_frames_ -= n;
  return pfn;
}

void BuddyAllocator::free(Pfn pfn, std::uint32_t order) {
  assert(order <= kMaxOrder);
  const std::uint32_t n = 1U << order;
  for (Pfn f = pfn; f < pfn + n; ++f) {
    assert(mem_.page(f).count == 0 && "freeing a frame still referenced");
    assert(!state_[f].free && "double free of frame");
    mem_.page(f).pin_count = 0;
  }
  free_frames_ += n;

  // Coalesce with buddies while possible.
  std::uint32_t o = order;
  Pfn head = pfn;
  while (o < kMaxOrder) {
    const Pfn buddy = head ^ (1U << o);
    if (buddy >= mem_.num_frames() || !state_[buddy].free ||
        state_[buddy].order != o) {
      break;
    }
    remove_free(buddy, o);
    head = std::min(head, buddy);
    ++o;
  }
  push_free(head, o);
}

std::uint32_t BuddyAllocator::free_blocks(std::uint32_t order) const {
  return static_cast<std::uint32_t>(free_lists_[order].size());
}

void BuddyAllocator::push_free(Pfn pfn, std::uint32_t order) {
  state_[pfn].free = true;
  state_[pfn].order = static_cast<std::uint8_t>(order);
  free_lists_[order].push_back(pfn);
}

void BuddyAllocator::remove_free(Pfn pfn, std::uint32_t order) {
  auto& list = free_lists_[order];
  auto it = std::find(list.begin(), list.end(), pfn);
  assert(it != list.end());
  *it = list.back();
  list.pop_back();
  state_[pfn].free = false;
}

}  // namespace vialock::simkern
