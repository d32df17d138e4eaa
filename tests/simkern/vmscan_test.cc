// vmscan_test.cc - page reclaim semantics: exactly the behaviours the paper's
// failure analysis depends on.
#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"

namespace vialock::simkern {
namespace {

using test::KernelBox;
using test::must_mmap;
using test::peek64;
using test::poke64;

/// Make every present page of `pid` in [a, a+pages) cold (clear accessed).
void cool_range(simkern::Kernel& k, Pid pid, VAddr a, int pages) {
  for (int p = 0; p < pages; ++p) {
    Pte* pte = k.task(pid).mm.pt.walk(a + p * kPageSize);
    if (pte && pte->present) pte->accessed = false;
  }
}

/// Scripted PressureHandler: claims to release a fixed page count per call.
struct FakeHandler final : PressureHandler {
  std::uint32_t yield = 0;
  std::uint32_t calls = 0;
  std::uint32_t last_target = 0;
  std::uint32_t on_memory_pressure(std::uint32_t target_pages) override {
    ++calls;
    last_target = target_pages;
    return yield;
  }
};

TEST(Vmscan, PressureHandlerRunsBeforeSwapOut) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 8);
  for (int p = 0; p < 8; ++p)
    ASSERT_TRUE(ok(poke64(box.kern, pid, a + p * kPageSize, 1)));
  cool_range(box.kern, pid, a, 8);
  FakeHandler h;
  h.yield = 3;
  box.kern.add_pressure_handler(&h);
  (void)box.kern.try_to_free_pages(4);
  EXPECT_EQ(h.calls, 1u);
  EXPECT_EQ(h.last_target, 4u) << "shrink_mmap freed nothing first";
  EXPECT_EQ(box.kern.stats().pressure_callbacks, 1u);
  EXPECT_EQ(box.kern.stats().pressure_pages_released, 3u);
  box.kern.remove_pressure_handler(&h);
  (void)box.kern.try_to_free_pages(4);
  EXPECT_EQ(h.calls, 1u) << "removed handler is not consulted";
}

TEST(Vmscan, PressureHandlerNotInvokedWhenTargetAlreadyMet) {
  // A zero target (a kswapd tick) is met before anything is freed, so the
  // handler must not run.
  KernelBox box;
  FakeHandler h;
  box.kern.add_pressure_handler(&h);
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 4);
  ASSERT_TRUE(ok(poke64(box.kern, pid, a, 7)));
  (void)box.kern.try_to_free_pages(0);
  EXPECT_EQ(h.calls, 0u);
  box.kern.remove_pressure_handler(&h);
}

TEST(Vmscan, SwapOutUnmapsColdPagesAndDataSurvives) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 8);
  for (int p = 0; p < 8; ++p)
    ASSERT_TRUE(ok(poke64(box.kern, pid, a + p * kPageSize, 100 + p)));
  cool_range(box.kern, pid, a, 8);
  EXPECT_GE(box.kern.try_to_free_pages(8), 8u);
  EXPECT_EQ(box.kern.task(pid).mm.rss, 0u);
  EXPECT_EQ(box.kern.stats().pages_swapped_out, 8u);
  // Major faults bring the data back intact.
  for (int p = 0; p < 8; ++p)
    EXPECT_EQ(peek64(box.kern, pid, a + p * kPageSize),
              static_cast<std::uint64_t>(100 + p));
  EXPECT_EQ(box.kern.stats().major_faults, 8u);
}

TEST(Vmscan, AccessedPagesGetOneRoundOfGrace) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 4);
  for (int p = 0; p < 4; ++p)
    ASSERT_TRUE(ok(box.kern.touch(pid, a + p * kPageSize, true)));
  // All pages hot: first reclaim pass only ages them.
  EXPECT_EQ(box.kern.try_to_free_pages(4), 0u);
  EXPECT_EQ(box.kern.stats().swap_skip_referenced, 4u);
  EXPECT_EQ(box.kern.task(pid).mm.rss, 4u);
  // Second pass evicts.
  EXPECT_GE(box.kern.try_to_free_pages(4), 4u);
  EXPECT_EQ(box.kern.task(pid).mm.rss, 0u);
}

TEST(Vmscan, SwapInAllocatesADifferentFrame) {
  // The core of the paper's section 3.1: the swapped-in page "cannot be one
  // of the pages formerly mapped ... since the kernel still regards them
  // used" - here even an unpinned page lands in a new frame because the old
  // one returned to the buddy and reclaim-order changed the free lists.
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 1);
  ASSERT_TRUE(ok(poke64(box.kern, pid, a, 5)));
  const auto pfn_before = box.kern.resolve(pid, a);
  ASSERT_TRUE(pfn_before.has_value());
  // Hold an extra reference, as a broken driver would.
  box.kern.get_page(*pfn_before);
  cool_range(box.kern, pid, a, 1);
  (void)box.kern.try_to_free_pages(1);
  ASSERT_FALSE(box.kern.resolve(pid, a).has_value());  // unmapped
  // The old frame is still in use (count 1 held by "the driver").
  EXPECT_FALSE(box.kern.phys().page(*pfn_before).free());
  EXPECT_EQ(peek64(box.kern, pid, a), 5u);  // fault back in
  const auto pfn_after = box.kern.resolve(pid, a);
  ASSERT_TRUE(pfn_after.has_value());
  EXPECT_NE(*pfn_after, *pfn_before) << "swap-in must use a fresh frame";
  box.kern.put_page(*pfn_before);
}

TEST(Vmscan, ElevatedRefcountDoesNotPreventSwapOut) {
  // The experiment result of section 3.1 in miniature.
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 4);
  for (int p = 0; p < 4; ++p)
    ASSERT_TRUE(ok(box.kern.touch(pid, a + p * kPageSize, true)));
  for (int p = 0; p < 4; ++p)
    box.kern.get_page(*box.kern.resolve(pid, a + p * kPageSize));
  cool_range(box.kern, pid, a, 4);
  (void)box.kern.try_to_free_pages(4);
  EXPECT_EQ(box.kern.task(pid).mm.rss, 0u) << "refcount must not protect";
  EXPECT_EQ(box.kern.stats().pages_swapped_out, 4u);
}

TEST(Vmscan, VmLockedVmaIsSkippedEntirely) {
  KernelBox box;
  (void)box.kern.create_task("idle");  // rotor needs somewhere else to look
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 4);
  ASSERT_TRUE(ok(box.kern.do_mlock(pid, a, 4 * kPageSize, true)));
  cool_range(box.kern, pid, a, 4);
  EXPECT_EQ(box.kern.try_to_free_pages(4), 0u);
  EXPECT_EQ(box.kern.task(pid).mm.rss, 4u);
  EXPECT_GE(box.kern.stats().swap_skip_vma_locked, 4u);
}

TEST(Vmscan, PgLockedPageIsSkipped) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 2);
  for (int p = 0; p < 2; ++p)
    ASSERT_TRUE(ok(box.kern.touch(pid, a + p * kPageSize, true)));
  box.kern.phys().page(*box.kern.resolve(pid, a)).flags |= PageFlag::Locked;
  cool_range(box.kern, pid, a, 2);
  EXPECT_EQ(box.kern.try_to_free_pages(2), 1u);  // only the unlocked page
  EXPECT_EQ(box.kern.task(pid).mm.rss, 1u);
  EXPECT_GE(box.kern.stats().swap_skip_page_locked, 1u);
  EXPECT_TRUE(box.kern.resolve(pid, a).has_value());
  EXPECT_FALSE(box.kern.resolve(pid, a + kPageSize).has_value());
}

TEST(Vmscan, PinnedPageIsSkipped) {
  // The proposed mechanism's contract: pin_count > 0 exempts from reclaim.
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 2);
  for (int p = 0; p < 2; ++p)
    ASSERT_TRUE(ok(box.kern.touch(pid, a + p * kPageSize, true)));
  ++box.kern.phys().page(*box.kern.resolve(pid, a)).pin_count;
  cool_range(box.kern, pid, a, 2);
  EXPECT_EQ(box.kern.try_to_free_pages(2), 1u);
  EXPECT_TRUE(box.kern.resolve(pid, a).has_value());
  EXPECT_GE(box.kern.stats().swap_skip_pinned, 1u);
  --box.kern.phys().page(*box.kern.resolve(pid, a)).pin_count;
}

TEST(Vmscan, AllocationTriggersReclaimAtWatermark) {
  auto cfg = test::small_config(/*frames=*/128, /*swap_slots=*/512);
  KernelBox box(cfg);
  const Pid pid = box.kern.create_task("t");
  // Touch more pages than there are frames: reclaim must kick in and swap.
  const VAddr a = must_mmap(box.kern, pid, 200);
  for (int p = 0; p < 200; ++p)
    ASSERT_TRUE(ok(box.kern.touch(pid, a + p * kPageSize, true)));
  EXPECT_GT(box.kern.stats().pages_swapped_out, 0u);
  EXPECT_GT(box.kern.stats().reclaim_runs, 0u);
  EXPECT_EQ(box.kern.stats().oom_failures, 0u);
}

TEST(Vmscan, SwapFullStopsEviction) {
  auto cfg = test::small_config(/*frames=*/128, /*swap_slots=*/16);
  KernelBox box(cfg);
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 300);
  KStatus last = KStatus::Ok;
  int touched = 0;
  for (int p = 0; p < 300; ++p) {
    last = box.kern.touch(pid, a + p * kPageSize, true);
    if (!ok(last)) break;
    ++touched;
  }
  // Eventually allocation fails: frames exhausted, swap full.
  EXPECT_EQ(last, KStatus::NoMem);
  EXPECT_GT(box.kern.stats().oom_failures, 0u);
  EXPECT_LE(box.kern.swap().used_slots(), 16u);
  EXPECT_GT(touched, 100);  // but a good chunk fit before that
}

TEST(Vmscan, ReclaimChargesItsScanBudget) {
  // shrink_mmap frees nothing, but each pass still charges a quarter of the
  // page map: one pass for a zero target, two full sweeps otherwise.
  KernelBox box;
  const std::uint32_t frames = box.kern.config().frames;
  const Nanos scan = box.kern.costs().reclaim_scan_page;
  const std::uint32_t budget = std::max(1u, frames / 4);
  Nanos before = box.clock.now();
  EXPECT_EQ(box.kern.try_to_free_pages(0), 0u);
  EXPECT_EQ(box.clock.now() - before, budget * scan);
  EXPECT_EQ(box.kern.stats().clock_scanned, budget);
  before = box.clock.now();
  EXPECT_EQ(box.kern.try_to_free_pages(4), 0u);
  EXPECT_EQ(box.clock.now() - before, 2ULL * frames * scan);
  EXPECT_EQ(box.kern.stats().clock_scanned, budget + 2ULL * frames);
}

TEST(Vmscan, ReclaimRotorVisitsAllTasks) {
  KernelBox box;
  const Pid p1 = box.kern.create_task("a");
  const Pid p2 = box.kern.create_task("b");
  const VAddr a1 = must_mmap(box.kern, p1, 4);
  const VAddr a2 = must_mmap(box.kern, p2, 4);
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(ok(box.kern.touch(p1, a1 + p * kPageSize, true)));
    ASSERT_TRUE(ok(box.kern.touch(p2, a2 + p * kPageSize, true)));
  }
  cool_range(box.kern, p1, a1, 4);
  cool_range(box.kern, p2, a2, 4);
  EXPECT_GE(box.kern.try_to_free_pages(8), 8u);
  EXPECT_EQ(box.kern.task(p1).mm.rss, 0u);
  EXPECT_EQ(box.kern.task(p2).mm.rss, 0u);
}

}  // namespace
}  // namespace vialock::simkern
