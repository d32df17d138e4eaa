// tpt.h - the NIC's Translation and Protection Table.
//
// Registered communication memory lives here: one entry per user page holding
// the physical frame number and the protection tag of the owning process
// (VIA spec sections the paper summarises in its introduction). Every DMA
// access the NIC performs is translated and checked through this table - so
// a stale entry (frame relocated by the swapper) makes the NIC silently DMA
// to the wrong physical page, the failure mode of the whole paper.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "simkern/types.h"
#include "util/extent_map.h"
#include "util/status.h"

namespace vialock::via {

/// Protection tag: one per process (created at VipCreatePtag). Tag 0 invalid.
using ProtectionTag = std::uint32_t;
inline constexpr ProtectionTag kInvalidTag = 0;

/// Index into the TPT; a registered region occupies a contiguous entry range.
using TptIndex = std::uint32_t;
inline constexpr TptIndex kInvalidTptIndex = static_cast<TptIndex>(-1);

/// One TPT entry maps a *run* of 2^order contiguous, identically-tagged
/// frames: page_start is the first registration-relative page the run
/// covers and pfn the frame backing that first page (page_start + i maps to
/// pfn + i). Order 0 is the classic one-entry-per-page layout; higher
/// orders are "superpages" that let a large registration occupy
/// O(1)-O(log N) entries instead of N. The three 32-bit words come first and
/// the four byte-wide fields pack after them: 16 bytes, no padding.
struct TptEntry {
  simkern::Pfn pfn = simkern::kInvalidPfn;
  ProtectionTag tag = kInvalidTag;
  std::uint32_t page_start = 0;  ///< registration-relative first page covered
  bool valid = false;
  bool rdma_write_enable = false;
  bool rdma_read_enable = false;
  std::uint8_t order = 0;        ///< entry spans 2^order pages

  [[nodiscard]] std::uint32_t span_pages() const { return 1u << order; }
};
static_assert(sizeof(TptEntry) == 16);

class Tpt {
 public:
  explicit Tpt(std::uint32_t num_entries)
      : capacity_(num_entries), free_(num_entries) {}

  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t used() const {
    return static_cast<std::uint32_t>(used_);
  }
  [[nodiscard]] std::uint32_t free_entries() const { return capacity() - used(); }

  /// Allocate `count` contiguous entries; kInvalidTptIndex if no hole fits.
  /// First-fit in address order over the free-extent index, so placements
  /// are identical to a front-to-back bitmap scan at O(holes) instead of
  /// O(capacity) cost per allocation.
  [[nodiscard]] TptIndex alloc(std::uint32_t count);

  /// Free holes in the table (fragmentation metric).
  [[nodiscard]] std::size_t free_extent_count() const {
    return free_.extent_count();
  }
  /// Largest allocation that could currently succeed.
  [[nodiscard]] std::uint32_t largest_free_run() const {
    return free_.largest_extent();
  }

  /// Release a range previously returned by alloc().
  void release(TptIndex base, std::uint32_t count);

  /// Program entry `idx` (< capacity()). Storage grows to the highest index
  /// ever set, so a table pays only for the entries first-fit reached.
  void set(TptIndex idx, const TptEntry& e) {
    assert(idx < capacity_);
    if (idx >= entries_.size()) entries_.resize(idx + 1);
    entries_[idx] = e;
  }
  /// Entry `idx`; an index past every programmed one reads as unset.
  [[nodiscard]] TptEntry get(TptIndex idx) const {
    return idx < entries_.size() ? entries_[idx] : TptEntry{};
  }

  struct Translation {
    simkern::Pfn pfn;
    std::uint32_t page_offset;
  };

  /// Translate (base entry, byte offset) under `tag`; checks validity, tag
  /// match and - when `rdma_write`/`rdma_read` - the RDMA enable attributes.
  /// `count` is the number of TPT entries the region occupies (the handle's
  /// tpt_count); the entries must hold ascending page_start values, which
  /// registration guarantees, and must all have been programmed: a range
  /// reaching past the highest programmed entry does not translate.
  /// Order-0 dense layouts (page_start == index) hit a direct-probe fast
  /// path; mixed-order layouts binary-search.
  [[nodiscard]] std::optional<Translation> translate(TptIndex base,
                                                     std::uint32_t count,
                                                     std::uint64_t offset,
                                                     ProtectionTag tag,
                                                     bool rdma_write,
                                                     bool rdma_read) const;

 private:
  std::uint32_t capacity_;
  /// Entries [0, highest index set]; the rest of the table reads as unset.
  std::vector<TptEntry> entries_;
  /// Ordered free-extent index over [0, capacity): allocation and release
  /// cost O(log holes) instead of scanning every entry.
  ExtentMap<TptIndex, std::uint32_t> free_;
  std::uint64_t used_ = 0;
};

}  // namespace vialock::via
