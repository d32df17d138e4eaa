// extent_map.h - an ordered free-extent index for address-space allocators.
//
// Replaces the O(capacity) bitmap scans on the host's allocation hot paths
// (NIC TPT slots, VMA gap placement) with a start-keyed map of maximal free
// extents: allocation walks free *extents* in address order (first-fit over
// fragments, not over every slot) and release coalesces with both
// neighbours, so the extent count stays bounded by the fragmentation of the
// space, never by its size. The address-ordered walk makes the allocator
// produce bit-identical placements to the classic first-fit bitmap scan -
// the property every deterministic experiment (E1-E22) relies on. The shape
// follows the range-indexed address-space structures of "Scalable Range
// Locks for Scalable Address Spaces and Beyond" (Kogan, Dice, Issa), scaled
// down to a single-owner simulator: one ordered map, no per-extent locks.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>

namespace vialock {

/// Ordered set of maximal, non-adjacent free extents over [0, universe).
/// `Index` is the address type (TptIndex, simkern::VAddr, ...); `Length`
/// the extent-size type. All lengths are > 0; extents never touch (release
/// coalesces eagerly), so `free_.size()` equals the number of free holes.
template <typename Index, typename Length = Index>
class ExtentMap {
 public:
  ExtentMap() = default;
  /// Start fully free over [0, universe).
  explicit ExtentMap(Length universe) {
    if (universe > 0) free_.emplace(Index{0}, universe);
  }

  /// Lowest start of a free extent of at least `len`, in address order
  /// (first-fit). O(#extents) worst case, O(1) for the unfragmented common
  /// case; does not reserve.
  [[nodiscard]] std::optional<Index> find_first_fit(Length len) const {
    if (len == 0) return std::nullopt;
    for (const auto& [start, elen] : free_) {
      if (elen >= len) return start;
    }
    return std::nullopt;
  }

  /// Lowest addr >= `lo` with [addr, addr+len) entirely free. Walks free
  /// extents from the one straddling `lo` upward; extents below `lo` are
  /// never touched, so the cost is O(log n + extents actually inspected).
  [[nodiscard]] std::optional<Index> find_first_fit_from(Index lo,
                                                         Length len) const {
    if (len == 0) return std::nullopt;
    auto it = free_.upper_bound(lo);
    if (it != free_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second > lo) it = prev;  // straddles lo
    }
    for (; it != free_.end(); ++it) {
      const Index candidate = it->first > lo ? it->first : lo;
      if (it->first + it->second >= candidate + len) return candidate;
    }
    return std::nullopt;
  }

  /// True iff [start, start+len) lies entirely inside one free extent.
  [[nodiscard]] bool is_free(Index start, Length len) const {
    if (len == 0) return true;
    auto it = free_.upper_bound(start);
    if (it == free_.begin()) return false;
    --it;
    return it->first <= start && start + len <= it->first + it->second;
  }

  /// Carve [start, start+len) out of the free set. The range must be free
  /// (checked); splits the containing extent into up to two remainders.
  void reserve(Index start, Length len) {
    if (len == 0) return;
    auto it = free_.upper_bound(start);
    assert(it != free_.begin() && "reserve of non-free range");
    --it;
    const Index estart = it->first;
    const Length elen = it->second;
    assert(estart <= start && start + len <= estart + elen &&
           "reserve of non-free range");
    free_.erase(it);
    if (start > estart) free_.emplace(estart, static_cast<Length>(start - estart));
    if (estart + elen > start + len)
      free_.emplace(static_cast<Index>(start + len),
                    static_cast<Length>(estart + elen - (start + len)));
  }

  /// Return [start, start+len) to the free set, coalescing with adjacent
  /// extents. The range must currently be reserved (checked in debug).
  void release(Index start, Length len) {
    if (len == 0) return;
    assert(!overlaps_free(start, len) && "double free");
    Index nstart = start;
    Length nlen = len;
    auto next = free_.upper_bound(start);
    if (next != free_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == start) {  // merge left
        nstart = prev->first;
        nlen = static_cast<Length>(nlen + prev->second);
        next = free_.erase(prev);
      }
    }
    if (next != free_.end() && next->first == start + len) {  // merge right
      nlen = static_cast<Length>(nlen + next->second);
      free_.erase(next);
    }
    free_.emplace(nstart, nlen);
  }

  /// Number of free holes (a fragmentation metric).
  [[nodiscard]] std::size_t extent_count() const { return free_.size(); }

  /// Total free units.
  [[nodiscard]] Length total_free() const {
    Length sum{0};
    for (const auto& [start, len] : free_) sum = static_cast<Length>(sum + len);
    return sum;
  }

  /// Largest single free extent (what the biggest allocation could get).
  [[nodiscard]] Length largest_extent() const {
    Length best{0};
    for (const auto& [start, len] : free_)
      if (len > best) best = len;
    return best;
  }

  template <typename Fn>
  void for_each_free(Fn&& fn) const {
    for (const auto& [start, len] : free_) fn(start, len);
  }

 private:
  [[nodiscard]] bool overlaps_free(Index start, Length len) const {
    auto it = free_.upper_bound(start);
    if (it != free_.end() && it->first < start + len) return true;
    if (it == free_.begin()) return false;
    --it;
    return it->first + it->second > start;
  }

  std::map<Index, Length> free_;  ///< start -> length, maximal, non-adjacent
};

}  // namespace vialock
