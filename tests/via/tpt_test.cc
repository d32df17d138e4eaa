// tpt_test.cc - Translation and Protection Table: allocation, translation,
// tag and RDMA-attribute enforcement.
#include "via/tpt.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace vialock::via
