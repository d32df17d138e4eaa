// pagetable.h - two-level i386-style page tables (PGD -> PTE).
//
// A PTE is either present (holds a pfn) or not; a not-present PTE may carry a
// swap slot, which is exactly the state the paper's failure analysis hinges
// on: swap_out_vma() rewrites a present PTE into a swapped PTE and calls
// __free_page() - if a driver only elevated the frame's refcount, the frame
// survives but the translation is gone, and the next touch faults the data
// into a *different* frame.
//
// Cost accounting happens at the operation level in the Kernel facade, not
// here; this class is pure mechanism.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "simkern/types.h"

namespace vialock::simkern {

struct Pte {
  bool present = false;
  bool writable = false;
  bool cow = false;       ///< copy-on-write: write-protected shared anon page
  bool accessed = false;  ///< set by the MMU on access, cleared by clock scan
  Pfn pfn = kInvalidPfn;
  SwapSlot swap = kInvalidSwapSlot;  ///< valid when !present and swapped out

  [[nodiscard]] bool none() const {
    return !present && swap == kInvalidSwapSlot;
  }
};
static_assert(sizeof(Pte) == 12);

class PageTable {
 public:
  static constexpr std::uint32_t kPgdBits = 10;
  static constexpr std::uint32_t kPteBits = 10;
  static constexpr std::uint32_t kPgdEntries = 1U << kPgdBits;
  static constexpr std::uint32_t kPteEntries = 1U << kPteBits;
  /// Highest addressable user byte + 1 (3 GB user split, as on i386 Linux).
  static constexpr VAddr kUserTop = 0xC0000000ULL;

  PageTable() : pgd_(kPgdEntries) {}

  /// Lookup without allocating; nullptr when no second-level table exists.
  [[nodiscard]] Pte* walk(VAddr vaddr);
  [[nodiscard]] const Pte* walk(VAddr vaddr) const;

  /// Lookup, allocating the second-level table if needed. Returns the number
  /// of table levels that had to be materialised via `levels_allocated`.
  [[nodiscard]] Pte& ensure(VAddr vaddr, std::uint32_t* levels_allocated = nullptr);

  /// Visit every non-none PTE in [start, end); callback gets (vaddr, pte).
  /// Used by swap_out_vma and by fork's COW sweep.
  void for_each_in(VAddr start, VAddr end,
                   const std::function<void(VAddr, Pte&)>& fn);

  /// Drop all PTEs in [start, end) (munmap); callback sees each dropped PTE
  /// first so the caller can release frames / swap slots.
  void clear_range(VAddr start, VAddr end,
                   const std::function<void(VAddr, Pte&)>& on_drop);

  [[nodiscard]] std::uint32_t second_level_tables() const;

 private:
  using PteTable = std::vector<Pte>;

  static std::uint32_t pgd_index(VAddr v) {
    return static_cast<std::uint32_t>(v >> (kPageShift + kPteBits)) &
           (kPgdEntries - 1);
  }
  static std::uint32_t pte_index(VAddr v) {
    return static_cast<std::uint32_t>(v >> kPageShift) & (kPteEntries - 1);
  }

  std::vector<std::unique_ptr<PteTable>> pgd_;
};

}  // namespace vialock::simkern
