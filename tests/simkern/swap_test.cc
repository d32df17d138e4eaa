// swap_test.cc - swap map slot lifecycle and data round trips.
#include "simkern/swap.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "util/cost_model.h"
#include "util/rng.h"

namespace vialock::simkern {
namespace {

struct SwapBox {
  Clock clock;
  CostModel costs;
  SwapDevice dev{64, clock, costs};
};

TEST(SwapDevice, AllocatesDistinctSlotsUntilFull) {
  SwapBox box;
  std::array<bool, 64> seen{};
  for (int i = 0; i < 64; ++i) {
    const SwapSlot s = box.dev.alloc();
    ASSERT_NE(s, kInvalidSwapSlot);
    ASSERT_FALSE(seen[s]);
    seen[s] = true;
  }
  EXPECT_EQ(box.dev.alloc(), kInvalidSwapSlot);
  EXPECT_EQ(box.dev.used_slots(), 64u);
}

TEST(SwapDevice, FreeMakesSlotReusable) {
  SwapBox box;
  const SwapSlot s = box.dev.alloc();
  box.dev.free(s);
  EXPECT_EQ(box.dev.used_slots(), 0u);
  // next-fit cursor means we may get a different slot, but capacity returns
  for (int i = 0; i < 64; ++i) ASSERT_NE(box.dev.alloc(), kInvalidSwapSlot);
}

TEST(SwapDevice, NextFitCursorSemanticsPreserved) {
  // The free-slot scan is a bitmap scan (DESIGN.md section 9); the
  // placements must stay exactly the seed's next-fit: scan from the hint,
  // wrap at the end, never restart from zero while slots remain ahead.
  SwapBox box;
  std::array<SwapSlot, 6> s{};
  for (auto& slot : s) slot = box.dev.alloc();
  EXPECT_EQ(s[5], 5u) << "fresh device hands out slots in order";
  box.dev.free(s[1]);
  box.dev.free(s[3]);
  // Hint sits at 6: the next alloc takes 6, not the freed 1 or 3.
  EXPECT_EQ(box.dev.alloc(), 6u);
  // Exhaust the tail; then the cursor wraps to the lowest freed slot.
  for (SwapSlot want = 7; want < 64; ++want)
    ASSERT_EQ(box.dev.alloc(), want);
  EXPECT_EQ(box.dev.alloc(), 1u) << "wrap-around lands on the first hole";
  EXPECT_EQ(box.dev.alloc(), 3u);
  EXPECT_EQ(box.dev.alloc(), kInvalidSwapSlot);
}

TEST(SwapDevice, DupRequiresMultipleFrees) {
  SwapBox box;
  const SwapSlot s = box.dev.alloc();
  box.dev.dup(s);
  EXPECT_EQ(box.dev.refcount(s), 2u);
  box.dev.free(s);
  EXPECT_EQ(box.dev.used_slots(), 1u);
  box.dev.free(s);
  EXPECT_EQ(box.dev.used_slots(), 0u);
}

// 2.2's swap_duplicate() stops counting at SWAP_MAP_MAX and swap_free()
// leaves such a slot allocated for good; a 16-bit count that wrapped instead
// would hand a slot still named by PTEs back out.
TEST(SwapDevice, DupSaturatesInsteadOfWrapping) {
  SwapBox box;
  const SwapSlot s = box.dev.alloc();
  for (int i = 0; i < 40'000; ++i) box.dev.dup(s);
  EXPECT_EQ(box.dev.refcount(s), kSwapMapMax);
  EXPECT_EQ(box.dev.used_slots(), 1u);
  for (int i = 0; i < 40'001; ++i) box.dev.free(s);
  EXPECT_EQ(box.dev.refcount(s), kSwapMapMax);
  EXPECT_EQ(box.dev.used_slots(), 1u);
  for (int i = 1; i < 64; ++i) ASSERT_NE(box.dev.alloc(), s);
  EXPECT_EQ(box.dev.alloc(), kInvalidSwapSlot);
  EXPECT_TRUE(box.dev.self_check().empty());
}

// The free-slot index must pick exactly the slot a next-fit linear scan of
// the per-slot counts picks: the first free slot at or after the hint, else
// the lowest free slot. Slot counts straddle the 64-slot bitmap words.
TEST(SwapDevice, NextFitMatchesReferenceScan) {
  for (const std::uint32_t n : {1u, 63u, 64u, 65u, 100u, 4096u}) {
    SCOPED_TRACE(n);
    Clock clock;
    CostModel costs;
    SwapDevice dev{n, clock, costs};
    std::vector<std::uint32_t> ref(n, 0);  // reference per-slot counts
    std::uint32_t hint = 0;
    std::vector<SwapSlot> held;
    auto ref_alloc = [&]() -> SwapSlot {
      for (std::uint32_t i = 0; i < n; ++i) {
        const SwapSlot s = (hint + i) % n;
        if (ref[s] == 0) {
          ref[s] = 1;
          hint = (s + 1) % n;
          return s;
        }
      }
      return kInvalidSwapSlot;
    };
    Rng rng(n);
    for (int op = 0; op < 10'000; ++op) {
      const std::uint64_t kind = rng.below(4);
      if (kind <= 1 || held.empty()) {
        const SwapSlot want = ref_alloc();
        ASSERT_EQ(dev.alloc(), want) << "op " << op;
        if (want != kInvalidSwapSlot) held.push_back(want);
      } else {
        const std::size_t i = rng.below(held.size());
        const SwapSlot s = held[i];
        if (kind == 2) {
          dev.dup(s);
          ++ref[s];
          held.push_back(s);
        } else {
          dev.free(s);
          --ref[s];
          held[i] = held.back();
          held.pop_back();
        }
      }
    }
    std::uint32_t used = 0;
    for (SwapSlot s = 0; s < n; ++s) {
      ASSERT_EQ(dev.refcount(s), ref[s]) << "slot " << s;
      used += ref[s] != 0;
    }
    EXPECT_EQ(dev.used_slots(), used);
    EXPECT_TRUE(dev.self_check().empty());
    // Exhaust the device: every remaining slot comes out in reference
    // order, none past the end of a partial bitmap word.
    for (SwapSlot want = ref_alloc(); want != kInvalidSwapSlot;
         want = ref_alloc()) {
      const SwapSlot got = dev.alloc();
      ASSERT_EQ(got, want);
      ASSERT_LT(got, n);
    }
    EXPECT_EQ(dev.alloc(), kInvalidSwapSlot);
    EXPECT_EQ(dev.used_slots(), n);
  }
}

TEST(SwapDevice, DataRoundTrips) {
  SwapBox box;
  const SwapSlot s = box.dev.alloc();
  std::array<std::byte, kPageSize> out_page{};
  std::array<std::byte, kPageSize> in_page{};
  for (std::size_t i = 0; i < kPageSize; ++i)
    out_page[i] = static_cast<std::byte>(i * 7 + 3);
  EXPECT_TRUE(ok(box.dev.write(s, out_page)));
  EXPECT_TRUE(ok(box.dev.read(s, in_page)));
  EXPECT_EQ(std::memcmp(out_page.data(), in_page.data(), kPageSize), 0);
}

TEST(SwapDevice, IoChargesVirtualDiskTime) {
  SwapBox box;
  const SwapSlot s = box.dev.alloc();
  std::array<std::byte, kPageSize> page{};
  const Nanos before = box.clock.now();
  EXPECT_TRUE(ok(box.dev.write(s, page)));
  const Nanos after = box.clock.now();
  EXPECT_GE(after - before, box.costs.swap_seek);
  EXPECT_EQ(box.dev.total_writes(), 1u);
}

TEST(SwapDevice, SlotsAreIndependent) {
  SwapBox box;
  const SwapSlot a = box.dev.alloc();
  const SwapSlot b = box.dev.alloc();
  std::array<std::byte, kPageSize> pa{};
  std::array<std::byte, kPageSize> pb{};
  pa.fill(std::byte{0xAA});
  pb.fill(std::byte{0xBB});
  EXPECT_TRUE(ok(box.dev.write(a, pa)));
  EXPECT_TRUE(ok(box.dev.write(b, pb)));
  std::array<std::byte, kPageSize> check{};
  EXPECT_TRUE(ok(box.dev.read(a, check)));
  EXPECT_EQ(check[0], std::byte{0xAA});
  EXPECT_TRUE(ok(box.dev.read(b, check)));
  EXPECT_EQ(check[0], std::byte{0xBB});
}

}  // namespace
}  // namespace vialock::simkern
