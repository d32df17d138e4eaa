// kiobuf_test.cc - map_user_kiobuf / unmap_kiobuf: the proposed mechanism's
// kernel half. Nesting, rollback, COW interaction, kiovec I/O locking.
#include <gtest/gtest.h>

#include "../test_util.h"

namespace vialock::simkern {
namespace {

using test::KernelBox;
using test::must_mmap;
using test::peek64;
using test::poke64;

TEST(Kiobuf, MapPinsAndRecordsFrames) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 4);
  Kiobuf kb = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, kb, a, 4 * kPageSize)));
  EXPECT_TRUE(kb.mapped);
  ASSERT_EQ(kb.num_pages(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kb.pfns[i], *box.kern.resolve(pid, a + i * kPageSize));
    EXPECT_EQ(box.kern.phys().page(kb.pfns[i]).pin_count, 1u);
    EXPECT_GE(box.kern.phys().page(kb.pfns[i]).count, 2u);  // PTE + kiobuf
  }
  box.kern.unmap_kiobuf(kb);
  EXPECT_FALSE(kb.mapped);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto pfn = *box.kern.resolve(pid, a + i * kPageSize);
    EXPECT_EQ(box.kern.phys().page(pfn).pin_count, 0u);
    EXPECT_EQ(box.kern.phys().page(pfn).count, 1u);
  }
}

TEST(Kiobuf, UnalignedRangeCoversAllTouchedPages) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 4);
  Kiobuf kb = box.kern.alloc_kiovec();
  // 2 bytes short of 3 pages, starting 100 bytes in: spans 3 pages.
  ASSERT_TRUE(ok(
      box.kern.map_user_kiobuf(pid, kb, a + 100, 3 * kPageSize - 102)));
  EXPECT_EQ(kb.num_pages(), 3u);
  EXPECT_EQ(kb.offset, 100u);
  box.kern.unmap_kiobuf(kb);
}

TEST(Kiobuf, NestedMapsStackPins) {
  // Each map carries its own pin: N maps -> pin_count N; unmapping one
  // leaves the others protecting the page. This is the property that makes
  // multiple registration work (unlike mlock).
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 2);
  Kiobuf k1 = box.kern.alloc_kiovec();
  Kiobuf k2 = box.kern.alloc_kiovec();
  Kiobuf k3 = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, k1, a, 2 * kPageSize)));
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, k2, a, 2 * kPageSize)));
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, k3, a, kPageSize)));
  EXPECT_EQ(box.kern.phys().page(k1.pfns[0]).pin_count, 3u);
  EXPECT_EQ(box.kern.phys().page(k1.pfns[1]).pin_count, 2u);
  box.kern.unmap_kiobuf(k2);
  EXPECT_EQ(box.kern.phys().page(k1.pfns[0]).pin_count, 2u);
  EXPECT_TRUE(box.kern.phys().page(k1.pfns[0]).pinned());
  const Pfn first = k1.pfns[0];  // unmap_kiobuf clears k1.pfns
  box.kern.unmap_kiobuf(k1);
  box.kern.unmap_kiobuf(k3);
  EXPECT_EQ(box.kern.phys().page(first).pin_count, 0u);
}

TEST(Kiobuf, MapFaultsPagesIn) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 4);
  EXPECT_FALSE(box.kern.resolve(pid, a).has_value());
  Kiobuf kb = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, kb, a, 4 * kPageSize)));
  EXPECT_EQ(box.kern.stats().minor_faults, 4u);
  box.kern.unmap_kiobuf(kb);
}

TEST(Kiobuf, MapBreaksCowBeforePinning) {
  // A COW-shared page must be resolved to a private copy before the NIC
  // learns its address, or the parent would see the child's DMA traffic.
  KernelBox box;
  const Pid parent = box.kern.create_task("p");
  const VAddr a = must_mmap(box.kern, parent, 1);
  ASSERT_TRUE(ok(poke64(box.kern, parent, a, 777)));
  const Pid child = box.kern.fork_task(parent);
  const Pfn shared = *box.kern.resolve(parent, a);
  Kiobuf kb = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(child, kb, a, kPageSize)));
  EXPECT_NE(kb.pfns[0], shared) << "pinned page must be the private copy";
  EXPECT_EQ(*box.kern.resolve(parent, a), shared);
  EXPECT_EQ(peek64(box.kern, child, a), 777u);
  box.kern.unmap_kiobuf(kb);
}

TEST(Kiobuf, MapOverUnmappedRangeFailsAndRollsBack) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 2);
  Kiobuf kb = box.kern.alloc_kiovec();
  // Range extends one page past the VMA: must fail, and the first two pages
  // must not stay pinned.
  EXPECT_EQ(box.kern.map_user_kiobuf(pid, kb, a, 3 * kPageSize),
            KStatus::Fault);
  EXPECT_FALSE(kb.mapped);
  ASSERT_TRUE(ok(box.kern.touch(pid, a, true)));
  EXPECT_EQ(box.kern.phys().page(*box.kern.resolve(pid, a)).pin_count, 0u);
  EXPECT_EQ(box.kern.phys().page(*box.kern.resolve(pid, a)).count, 1u);
}

TEST(Kiobuf, ZeroLengthIsInvalid) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  Kiobuf kb = box.kern.alloc_kiovec();
  EXPECT_EQ(box.kern.map_user_kiobuf(pid, kb, 0x1000, 0), KStatus::Inval);
}

TEST(Kiobuf, LockKiovecSetsAndClearsPgLocked) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 2);
  Kiobuf kb = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, kb, a, 2 * kPageSize)));
  ASSERT_TRUE(ok(box.kern.lock_kiovec(kb)));
  for (const Pfn pfn : kb.pfns)
    EXPECT_TRUE(box.kern.phys().page(pfn).locked());
  box.kern.unlock_kiovec(kb);
  for (const Pfn pfn : kb.pfns)
    EXPECT_FALSE(box.kern.phys().page(pfn).locked());
  box.kern.unmap_kiobuf(kb);
}

TEST(Kiobuf, LockKiovecRefusesPagesUnderKernelIo) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 2);
  Kiobuf kb = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, kb, a, 2 * kPageSize)));
  ASSERT_TRUE(ok(box.kern.start_kernel_io(kb.pfns[1])));
  EXPECT_EQ(box.kern.lock_kiovec(kb), KStatus::Busy);
  // All-or-nothing: page 0 must not have been left locked.
  EXPECT_FALSE(box.kern.phys().page(kb.pfns[0]).locked());
  box.kern.end_kernel_io(kb.pfns[1]);
  EXPECT_TRUE(ok(box.kern.lock_kiovec(kb)));
  const Pfn first = kb.pfns[0];  // unmap_kiobuf clears kb.pfns
  box.kern.unmap_kiobuf(kb);  // also unlocks
  EXPECT_FALSE(box.kern.phys().page(first).locked());
}

TEST(Kiobuf, UnmapIsIdempotent) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 1);
  Kiobuf kb = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, kb, a, kPageSize)));
  box.kern.unmap_kiobuf(kb);
  box.kern.unmap_kiobuf(kb);  // no-op, no underflow
  ASSERT_TRUE(ok(box.kern.touch(pid, a, true)));
  EXPECT_EQ(box.kern.phys().page(*box.kern.resolve(pid, a)).count, 1u);
}

TEST(Kiobuf, StatsCountMapsAndPins) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 3);
  Kiobuf kb = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, kb, a, 3 * kPageSize)));
  EXPECT_EQ(box.kern.stats().kiobuf_maps, 1u);
  EXPECT_EQ(box.kern.stats().kiobuf_pages_pinned, 3u);
  box.kern.unmap_kiobuf(kb);
}

}  // namespace
}  // namespace vialock::simkern
