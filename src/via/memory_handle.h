// memory_handle.h - the user-visible result of VipRegisterMem.
//
// A memory handle names a contiguous TPT entry range covering the registered
// virtual range. Descriptors address buffers as (handle, virtual address),
// and the handle they carry is only the range's TPT base: the NIC resolves
// it to the region's geometry and tag from its own region table, which the
// kernel agent writes when it programs the TPT (Nic::set_region), and then
// translates and checks every page. A caller's copy of the handle counts for
// nothing but its base and tag - on descriptors, raw local DMA and PIO
// windows alike - so widened geometry in a copy reaches no further than the
// registration. The other fields are the registrant's own record; they
// travel in svc, msg and mp wire headers, so the 48-byte layout is fixed.
#pragma once

#include <cstdint>
#include <optional>

#include "simkern/types.h"
#include "via/tpt.h"

namespace vialock::via {

/// One registered region as the NIC's region table records it, under the
/// region's TPT base: what a handle in a descriptor resolves to. A record
/// with kInvalidTag is empty - nothing is registered at that base.
struct RegionRecord {
  simkern::VAddr vaddr = 0;         ///< registered start (may be unaligned)
  std::uint64_t length = 0;
  std::uint32_t tpt_count = 0;      ///< TPT entries the region occupies
  ProtectionTag tag = kInvalidTag;

  /// Page-aligned start of the region the TPT entries cover.
  [[nodiscard]] simkern::VAddr region_start() const {
    return simkern::page_align_down(vaddr);
  }

  /// Byte offset of `addr` into the TPT entry range, or nullopt when `addr`
  /// (+ len) is outside the registered range.
  [[nodiscard]] std::optional<std::uint64_t> offset_of(simkern::VAddr addr,
                                                       std::uint64_t len) const {
    if (addr < vaddr || addr + len > vaddr + length) return std::nullopt;
    return addr - region_start();
  }
};
static_assert(sizeof(RegionRecord) == 24);

struct MemHandle {
  TptIndex tpt_base = kInvalidTptIndex;
  std::uint32_t pages = 0;          ///< user pages covered by the region
  std::uint32_t tpt_count = 0;      ///< TPT entries occupied (== pages at
                                    ///< order 0; fewer with superpages)
  simkern::VAddr vaddr = 0;         ///< registered start (may be unaligned)
  std::uint64_t length = 0;
  ProtectionTag tag = kInvalidTag;
  std::uint64_t id = 0;             ///< kernel agent registration id

  [[nodiscard]] bool valid() const { return tpt_base != kInvalidTptIndex; }

  /// The region table record this registration writes.
  [[nodiscard]] RegionRecord record() const {
    return {vaddr, length, tpt_count, tag};
  }
  [[nodiscard]] simkern::VAddr region_start() const {
    return record().region_start();
  }
};
static_assert(sizeof(MemHandle) == 48);

}  // namespace vialock::via
