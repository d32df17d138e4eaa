// page.h - physical frames and the page map (the kernel's mem_map_t array).
//
// Mirrors the structure the paper describes in section 2.1: one descriptor per
// physical page with a reference counter and a flag field. PG_locked marks
// pages under kernel I/O; PG_reserved marks pages withheld from the system.
// We add `pin_count`, the accounting used by the proposed kiobuf-based
// mechanism (map_user_kiobuf pins; the reclaim path honours it) - this is the
// paper's contribution expressed as page-map state.
//
// Frames carry real bytes: the simulated NIC DMA engine reads and writes frame
// contents directly by physical address, so a stale translation produces a
// visibly wrong value exactly as in the paper's locktest.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "simkern/types.h"
#include "util/flags.h"

namespace vialock::simkern {

/// Page-map flag bits (subset of Linux 2.2 PG_* relevant to the paper).
enum class PageFlag : std::uint16_t {
  None = 0,
  Locked = 1 << 0,     ///< PG_locked: page under (kernel) I/O; reclaim skips it
  Reserved = 1 << 1,   ///< PG_reserved: invisible to the memory system
};

}  // namespace vialock::simkern

template <>
inline constexpr bool vialock::enable_flag_ops<vialock::simkern::PageFlag> = true;

namespace vialock::simkern {

/// One mem_map_t entry: metadata the kernel keeps per physical frame.
struct Page {
  std::uint32_t count = 0;     ///< reference counter; 0 == frame is free
  PageFlag flags = PageFlag::None;
  std::uint32_t pin_count = 0; ///< kiobuf pins (proposed mechanism's state)

  [[nodiscard]] bool free() const { return count == 0; }
  [[nodiscard]] bool locked() const { return has(flags, PageFlag::Locked); }
  [[nodiscard]] bool reserved() const { return has(flags, PageFlag::Reserved); }
  [[nodiscard]] bool pinned() const { return pin_count > 0; }
};
static_assert(sizeof(Page) == 12);

/// Physical memory: the frame store plus the page map over it.
///
/// This is deliberately *not* an allocator; the buddy allocator (buddy.h)
/// owns free-frame bookkeeping and manipulates Page::count through here.
///
/// Frame bytes are backed lazily: a frame allocates its 4 KB only on first
/// write access, and an untouched frame reads as zeros through a shared
/// zero page - exactly the semantics a fresh anonymous frame has anyway.
/// This is what lets a 256-host scenario cluster exist in one process:
/// hosts pay for the frames they touch, not for their configured RAM size.
class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::uint32_t num_frames)
      : pages_(num_frames), frames_(num_frames) {}

  [[nodiscard]] std::uint32_t num_frames() const {
    return static_cast<std::uint32_t>(pages_.size());
  }

  [[nodiscard]] Page& page(Pfn pfn) { return pages_[pfn]; }
  [[nodiscard]] const Page& page(Pfn pfn) const { return pages_[pfn]; }

  [[nodiscard]] bool valid(Pfn pfn) const { return pfn < pages_.size(); }

  /// Raw bytes of a frame (what a DMA engine or CPU store actually hits).
  /// The mutable overload materialises backing; the const overload serves
  /// untouched frames from the shared zero page.
  [[nodiscard]] std::span<std::byte> frame(Pfn pfn) {
    return {materialize(pfn), kPageSize};
  }
  [[nodiscard]] std::span<const std::byte> frame(Pfn pfn) const {
    if (!frames_[pfn]) return {zero_page(), kPageSize};
    return {frames_[pfn].get(), kPageSize};
  }

  void zero_frame(Pfn pfn) {
    // An unmaterialised frame already reads as zeros; don't allocate one
    // just to clear it.
    if (frames_[pfn]) std::memset(frames_[pfn].get(), 0, kPageSize);
  }

  void copy_frame(Pfn dst, Pfn src) {
    if (!frames_[src]) {
      zero_frame(dst);
      return;
    }
    std::memcpy(materialize(dst), frames_[src].get(), kPageSize);
  }

  /// get_page(): take a reference on an in-use frame.
  void get(Pfn pfn) { ++pages_[pfn].count; }

 private:
  [[nodiscard]] std::byte* materialize(Pfn pfn) {
    if (!frames_[pfn])
      frames_[pfn] = std::make_unique<std::byte[]>(kPageSize);  // zeroed
    return frames_[pfn].get();
  }

  [[nodiscard]] static const std::byte* zero_page() {
    static const std::byte kZero[kPageSize] = {};
    return kZero;
  }

  std::vector<Page> pages_;
  std::vector<std::unique_ptr<std::byte[]>> frames_;
};

}  // namespace vialock::simkern
