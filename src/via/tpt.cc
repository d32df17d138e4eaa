#include "via/tpt.h"

#include <algorithm>
#include <cassert>

namespace vialock::via {

TptIndex Tpt::alloc(std::uint32_t count) {
  if (count == 0 || count > capacity()) return kInvalidTptIndex;
  const auto base = free_.find_first_fit(count);
  if (!base) return kInvalidTptIndex;
  free_.reserve(*base, count);
  used_ += count;
  return *base;
}

void Tpt::release(TptIndex base, std::uint32_t count) {
  assert(base + count <= capacity());
  free_.release(base, count);  // checks double-free in debug builds
  const auto stored = std::min<std::size_t>(base + count, entries_.size());
  for (std::size_t j = base; j < stored; ++j) entries_[j] = TptEntry{};
  used_ -= count;
}

std::optional<Tpt::Translation> Tpt::translate(TptIndex base,
                                               std::uint32_t count,
                                               std::uint64_t offset,
                                               ProtectionTag tag,
                                               bool rdma_write,
                                               bool rdma_read) const {
  const auto page = static_cast<std::uint64_t>(offset >> simkern::kPageShift);
  if (count == 0 || base >= entries_.size() || count > entries_.size() - base)
    return std::nullopt;

  // Fast path: in the order-0 dense layout entry i covers exactly page i, so
  // probing base+page resolves without a search. A single-entry region (one
  // superpage) hits the same probe via the min() clamp.
  const TptEntry* e = nullptr;
  const auto probe = static_cast<std::uint32_t>(
      page < count ? page : static_cast<std::uint64_t>(count) - 1);
  const TptEntry& guess = entries_[base + probe];
  if (guess.page_start <= page && page - guess.page_start < guess.span_pages()) {
    e = &guess;
  } else {
    // Mixed-order layout: entries hold ascending page_start; find the last
    // entry whose run begins at or before `page`.
    std::uint32_t lo = 0;
    std::uint32_t hi = count;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (entries_[base + mid].page_start <= page)
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo == 0) return std::nullopt;
    const TptEntry& cand = entries_[base + lo - 1];
    if (page - cand.page_start >= cand.span_pages()) return std::nullopt;
    e = &cand;
  }

  if (!e->valid) return std::nullopt;
  if (e->tag != tag) return std::nullopt;  // the protection-tag check
  if (rdma_write && !e->rdma_write_enable) return std::nullopt;
  if (rdma_read && !e->rdma_read_enable) return std::nullopt;
  return Translation{
      e->pfn + static_cast<simkern::Pfn>(page - e->page_start),
      static_cast<std::uint32_t>(offset & simkern::kPageMask)};
}

}  // namespace vialock::via
