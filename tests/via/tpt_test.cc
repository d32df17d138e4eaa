// tpt_test.cc - Translation and Protection Table: allocation, translation,
// tag and RDMA-attribute enforcement.
#include "via/tpt.h"

#include <gtest/gtest.h>

#include <vector>

#include "simkern/types.h"

namespace vialock::via {
namespace {

using simkern::kPageSize;

// An order-0 entry covering registration-relative page `page_start` (entries
// within a region must carry ascending page_start for translate()).
TptEntry entry(std::uint32_t page_start, simkern::Pfn pfn, ProtectionTag tag,
               bool w = true, bool r = true) {
  return TptEntry{.pfn = pfn,
                  .tag = tag,
                  .page_start = page_start,
                  .valid = true,
                  .rdma_write_enable = w,
                  .rdma_read_enable = r};
}

TEST(Tpt, AllocContiguousFirstFit) {
  Tpt tpt(16);
  const TptIndex a = tpt.alloc(4);
  const TptIndex b = tpt.alloc(4);
  ASSERT_NE(a, kInvalidTptIndex);
  ASSERT_NE(b, kInvalidTptIndex);
  EXPECT_NE(a, b);
  EXPECT_EQ(tpt.used(), 8u);
  EXPECT_EQ(tpt.free_entries(), 8u);
}

TEST(Tpt, FullTableReturnsInvalid) {
  Tpt tpt(8);
  EXPECT_NE(tpt.alloc(8), kInvalidTptIndex);
  EXPECT_EQ(tpt.alloc(1), kInvalidTptIndex);
}

TEST(Tpt, ReleaseEnablesReuseAndCoalescing) {
  Tpt tpt(8);
  const TptIndex a = tpt.alloc(3);
  const TptIndex b = tpt.alloc(3);
  tpt.release(a, 3);
  tpt.release(b, 3);
  EXPECT_EQ(tpt.used(), 0u);
  EXPECT_NE(tpt.alloc(8), kInvalidTptIndex);  // full span usable again
}

TEST(Tpt, FragmentationPreventsLargeAlloc) {
  Tpt tpt(8);
  const TptIndex a = tpt.alloc(2);  // [0,2)
  const TptIndex b = tpt.alloc(2);  // [2,4)
  const TptIndex c = tpt.alloc(2);  // [4,6)
  (void)a;
  (void)c;
  tpt.release(b, 2);
  EXPECT_EQ(tpt.alloc(4), kInvalidTptIndex);  // only holes of 2 remain
  EXPECT_NE(tpt.alloc(2), kInvalidTptIndex);
}

TEST(Tpt, ExtentIndexTracksFragmentation) {
  // The free list is an ordered extent map (DESIGN.md section 9): the hole
  // count and the largest run are O(extents) introspection, exported so
  // metrics and experiments can watch fragmentation directly.
  Tpt tpt(16);
  EXPECT_EQ(tpt.free_extent_count(), 1u);
  EXPECT_EQ(tpt.largest_free_run(), 16u);
  const TptIndex a = tpt.alloc(4);  // [0,4)
  const TptIndex b = tpt.alloc(4);  // [4,8)
  const TptIndex c = tpt.alloc(4);  // [8,12)
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(c, 8u);
  EXPECT_EQ(tpt.free_extent_count(), 1u);  // only the tail [12,16)
  EXPECT_EQ(tpt.largest_free_run(), 4u);
  tpt.release(b, 4);  // two holes now: [4,8) and [12,16)
  EXPECT_EQ(tpt.free_extent_count(), 2u);
  EXPECT_EQ(tpt.largest_free_run(), 4u);
  tpt.release(c, 4);  // [4,16) coalesces into one hole
  EXPECT_EQ(tpt.free_extent_count(), 1u);
  EXPECT_EQ(tpt.largest_free_run(), 12u);
  EXPECT_EQ(tpt.alloc(4), 4u) << "first-fit lands in the lowest hole";
}

TEST(Tpt, TranslateComputesPfnAndOffset) {
  Tpt tpt(8);
  const TptIndex base = tpt.alloc(2);
  tpt.set(base, entry(0, 100, 7));
  tpt.set(base + 1, entry(1, 200, 7));
  const auto t0 = tpt.translate(base, 2, 10, 7, false, false);
  ASSERT_TRUE(t0.has_value());
  EXPECT_EQ(t0->pfn, 100u);
  EXPECT_EQ(t0->page_offset, 10u);
  const auto t1 = tpt.translate(base, 2, kPageSize + 20, 7, false, false);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->pfn, 200u);
  EXPECT_EQ(t1->page_offset, 20u);
}

TEST(Tpt, TranslateRejectsOutOfRange) {
  Tpt tpt(8);
  const TptIndex base = tpt.alloc(2);
  tpt.set(base, entry(0, 100, 7));
  tpt.set(base + 1, entry(1, 200, 7));
  EXPECT_FALSE(tpt.translate(base, 2, 2 * kPageSize, 7, false, false));
}

TEST(Tpt, TranslateRejectsWrongTag) {
  Tpt tpt(8);
  const TptIndex base = tpt.alloc(1);
  tpt.set(base, entry(0, 100, 7));
  EXPECT_FALSE(tpt.translate(base, 1, 0, 8, false, false));
  EXPECT_TRUE(tpt.translate(base, 1, 0, 7, false, false));
}

TEST(Tpt, TranslateRejectsInvalidEntry) {
  Tpt tpt(8);
  const TptIndex base = tpt.alloc(1);
  EXPECT_FALSE(tpt.translate(base, 1, 0, 7, false, false));
}

TEST(Tpt, RdmaEnableBitsEnforced) {
  Tpt tpt(8);
  const TptIndex base = tpt.alloc(2);
  tpt.set(base, entry(0, 100, 7, /*w=*/false, /*r=*/true));
  tpt.set(base + 1, entry(1, 101, 7, /*w=*/true, /*r=*/false));
  EXPECT_FALSE(tpt.translate(base, 2, 0, 7, /*w=*/true, false));
  EXPECT_TRUE(tpt.translate(base, 2, 0, 7, false, /*r=*/true));
  EXPECT_TRUE(tpt.translate(base, 2, kPageSize, 7, /*w=*/true, false));
  EXPECT_FALSE(tpt.translate(base, 2, kPageSize, 7, false, /*r=*/true));
}

TEST(Tpt, ReleaseInvalidatesEntries) {
  Tpt tpt(8);
  const TptIndex base = tpt.alloc(1);
  tpt.set(base, entry(0, 100, 7));
  tpt.release(base, 1);
  const TptIndex again = tpt.alloc(1);
  ASSERT_EQ(again, base);  // first-fit reuses the slot
  EXPECT_FALSE(tpt.translate(again, 1, 0, 7, false, false))
      << "stale entry must not survive release";
}

// --- storage on demand: the table holds entries only up to the highest one
//     ever programmed, and must read exactly like an eagerly sized table ---

TEST(Tpt, GetPastHighWaterMarkReadsUnset) {
  Tpt tpt(64);
  EXPECT_FALSE(tpt.get(0).valid) << "nothing programmed yet";
  EXPECT_FALSE(tpt.get(63).valid);
  tpt.set(3, entry(0, 100, 7));
  EXPECT_TRUE(tpt.get(3).valid);
  EXPECT_EQ(tpt.get(3).pfn, 100u);
  EXPECT_FALSE(tpt.get(2).valid) << "below the mark, never programmed";
  EXPECT_FALSE(tpt.get(4).valid) << "past the mark";
  EXPECT_FALSE(tpt.get(63).valid);
  EXPECT_EQ(tpt.get(63).tag, kInvalidTag);
}

TEST(Tpt, TranslatePastHighWaterMarkFails) {
  Tpt tpt(16);
  const TptIndex a = tpt.alloc(2);  // [0,2), programmed
  tpt.set(a, entry(0, 100, 7));
  tpt.set(a + 1, entry(1, 101, 7));
  const TptIndex b = tpt.alloc(4);  // [2,6), allocated, never programmed
  EXPECT_FALSE(tpt.translate(b, 4, 0, 7, false, false));
  EXPECT_FALSE(tpt.translate(b, 4, 3 * kPageSize, 7, false, false));
  // A range that starts inside the programmed entries but reaches past them.
  EXPECT_FALSE(tpt.translate(a, 4, 0, 7, false, false));
  // A forged handle wholly past the mark, and one past the capacity.
  EXPECT_FALSE(tpt.translate(10, 2, 0, 7, false, false));
  EXPECT_FALSE(tpt.translate(15, 4, 0, 7, false, false));
  EXPECT_TRUE(tpt.translate(a, 2, kPageSize, 7, false, false));
}

TEST(Tpt, ReleaseNeverProgrammedRangeIsClean) {
  Tpt tpt(16);
  const TptIndex a = tpt.alloc(8);
  ASSERT_EQ(a, 0u);
  tpt.release(a, 8);  // no entry was ever stored
  EXPECT_EQ(tpt.used(), 0u);
  EXPECT_EQ(tpt.free_extent_count(), 1u);
  // A range straddling the mark: only the stored part is cleared.
  const TptIndex b = tpt.alloc(6);
  tpt.set(b, entry(0, 100, 7));
  tpt.set(b + 1, entry(1, 101, 7));
  tpt.release(b, 6);
  EXPECT_FALSE(tpt.get(b).valid);
  EXPECT_FALSE(tpt.get(b + 1).valid);
  EXPECT_FALSE(tpt.get(b + 5).valid);
  EXPECT_EQ(tpt.used(), 0u);
  EXPECT_EQ(tpt.alloc(16), 0u) << "the whole table is free again";
}

TEST(Tpt, LazyTableMatchesEagerlySizedTable) {
  constexpr std::uint32_t kEntries = 64;
  Tpt lazy(kEntries);
  Tpt eager(kEntries);
  eager.set(kEntries - 1, TptEntry{});  // storage for every entry up front
  struct Region {
    TptIndex base;
    std::uint32_t count;
  };
  std::vector<Region> live;
  const auto same = [&](int step) {
    EXPECT_EQ(lazy.capacity(), eager.capacity()) << "step " << step;
    EXPECT_EQ(lazy.used(), eager.used()) << "step " << step;
    EXPECT_EQ(lazy.free_entries(), eager.free_entries()) << "step " << step;
    EXPECT_EQ(lazy.free_extent_count(), eager.free_extent_count())
        << "step " << step;
    EXPECT_EQ(lazy.largest_free_run(), eager.largest_free_run())
        << "step " << step;
    for (TptIndex i = 0; i < kEntries; ++i) {
      EXPECT_EQ(lazy.get(i).valid, eager.get(i).valid)
          << "step " << step << " entry " << i;
      EXPECT_EQ(lazy.get(i).pfn, eager.get(i).pfn)
          << "step " << step << " entry " << i;
    }
    for (const Region& r : live) {
      for (std::uint32_t p = 0; p < r.count; ++p) {
        const auto l = lazy.translate(r.base, r.count, p * kPageSize, 7,
                                      false, false);
        const auto e = eager.translate(r.base, r.count, p * kPageSize, 7,
                                       false, false);
        ASSERT_EQ(l.has_value(), e.has_value()) << "step " << step;
        if (l) {
          EXPECT_EQ(l->pfn, e->pfn);
        }
      }
    }
  };
  const std::uint32_t sizes[] = {3, 5, 1, 8, 2, 4, 6, 7};
  int step = 0;
  for (int round = 0; round < 3; ++round) {
    for (const std::uint32_t count : sizes) {
      const TptIndex lb = lazy.alloc(count);
      ASSERT_EQ(lb, eager.alloc(count)) << "first-fit placements agree";
      if (lb == kInvalidTptIndex) continue;
      for (std::uint32_t p = 0; p < count; ++p) {
        const TptEntry e = entry(p, 1000 * round + lb + p, 7);
        lazy.set(lb + p, e);
        eager.set(lb + p, e);
      }
      live.push_back({lb, count});
      same(++step);
    }
    // Release every other region, oldest first: holes for the next round.
    for (std::size_t k = 0; k < live.size(); k += 2) {
      lazy.release(live[k].base, live[k].count);
      eager.release(live[k].base, live[k].count);
    }
    std::vector<Region> kept;
    for (std::size_t k = 1; k < live.size(); k += 2) kept.push_back(live[k]);
    live = kept;
    same(++step);
  }
}

}  // namespace
}  // namespace vialock::via
