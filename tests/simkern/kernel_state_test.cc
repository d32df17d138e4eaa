// kernel_state_test.cc - the kernel state the old /proc text reports showed
// (memory totals, event counters, one task's footprint), read through the
// kernel's own accessors; plus waiting-mode completion cost. The first suite
// keeps the name of the reports it replaced.
#include <gtest/gtest.h>

#include <algorithm>

#include "../via/via_util.h"

namespace vialock::simkern {
namespace {

using test::KernelBox;
using test::must_mmap;

TEST(Procfs, MeminfoReflectsState) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 4);
  Kiobuf kb = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, kb, a, 2 * kPageSize)));
  EXPECT_EQ(box.kern.config().frames * kPageSize, 2048u * 1024);
  EXPECT_EQ(box.kern.pinned_frames(), 2u);
  std::uint32_t pinned = 0;
  for (Pfn pfn = 0; pfn < box.kern.phys().num_frames(); ++pfn)
    pinned += box.kern.phys().page(pfn).pinned() ? 1 : 0;
  EXPECT_EQ(pinned, 2u);
  box.kern.unmap_kiobuf(kb);
}

TEST(Procfs, VmstatCountsEvents) {
  KernelBox box;
  const Pid pid = box.kern.create_task("t");
  const VAddr a = must_mmap(box.kern, pid, 3);
  for (int p = 0; p < 3; ++p)
    ASSERT_TRUE(ok(box.kern.touch(pid, a + p * kPageSize, true)));
  const KernelStats& s = box.kern.stats();
  EXPECT_EQ(s.minor_faults, 3u);
  EXPECT_EQ(s.pages_swapped_out, 0u);
  EXPECT_EQ(s.pressure_callbacks, 0u);
  EXPECT_EQ(s.pressure_pages_released, 0u);
}

TEST(Procfs, TaskStatusShowsFootprint) {
  KernelBox box;
  const Pid pid = box.kern.create_task("worker", Capability::IpcLock);
  const VAddr a = must_mmap(box.kern, pid, 8);
  ASSERT_TRUE(ok(box.kern.sys_mlock(pid, a, 2 * kPageSize)));
  const Task& t = box.kern.task(pid);
  std::uint64_t vm_pages = 0;
  std::uint64_t locked_pages = 0;
  t.mm.vmas.for_each([&](const Vma& vma) {
    vm_pages += vma.pages();
    if (has(vma.flags, VmFlag::Locked)) locked_pages += vma.pages();
  });
  EXPECT_EQ(t.name, "worker");
  EXPECT_EQ(vm_pages, 8u);
  EXPECT_EQ(t.mm.rss, 2u);
  EXPECT_EQ(locked_pages, 2u);
  EXPECT_TRUE(t.capable(Capability::IpcLock));
  EXPECT_FALSE(box.kern.task_exists(999));
}

// Exiting a task from the middle of the task table must leave the others
// reachable, and a later task must still be found and reclaimed from.
TEST(KernelState, TaskTableSurvivesMiddleExit) {
  KernelBox box;
  constexpr std::uint64_t kPages = 8;
  auto spawn = [&](const char* name) {
    const Pid pid = box.kern.create_task(name);
    const VAddr a = must_mmap(box.kern, pid, kPages);
    for (std::uint64_t p = 0; p < kPages; ++p)
      EXPECT_TRUE(ok(box.kern.touch(pid, a + p * kPageSize, true)));
    return pid;
  };
  const Pid first = spawn("first");
  const Pid middle = spawn("middle");
  const Pid last = spawn("last");
  box.kern.exit_task(middle);
  const Pid fourth = spawn("fourth");

  EXPECT_FALSE(box.kern.task_exists(middle));
  EXPECT_GT(fourth, std::max({first, middle, last}));
  for (const Pid pid : {first, last, fourth}) {
    ASSERT_TRUE(box.kern.task_exists(pid));
    EXPECT_EQ(box.kern.task(pid).pid, pid);
    EXPECT_EQ(box.kern.task(pid).mm.rss, kPages);
  }

  // The first pass only ages the freshly touched pages; the second swaps.
  for (int pass = 0; pass < 2; ++pass)
    (void)box.kern.try_to_free_pages(3 * kPages);
  for (const Pid pid : {first, last, fourth})
    EXPECT_LT(box.kern.task(pid).mm.rss, kPages) << "pid " << pid;
  EXPECT_TRUE(box.kern.self_check().empty());
}

// Every swap reference is a PTE: a slot held with no PTE naming it, or a
// count above its PTE references, is a leak self_check() must report.
TEST(KernelState, SelfCheckCatchesLeakedSwapSlot) {
  KernelBox box;
  const Pid pid = box.kern.create_task("leaky");
  const VAddr a = must_mmap(box.kern, pid, 8);
  for (std::uint64_t p = 0; p < 8; ++p)
    EXPECT_TRUE(ok(box.kern.touch(pid, a + p * kPageSize, true)));
  for (int pass = 0; pass < 2; ++pass) (void)box.kern.try_to_free_pages(8);
  ASSERT_GT(box.kern.swap().used_slots(), 0u);
  ASSERT_TRUE(box.kern.self_check().empty());

  const SwapSlot leaked = box.kern.swap().alloc();
  ASSERT_NE(leaked, kInvalidSwapSlot);
  EXPECT_FALSE(box.kern.self_check().empty());
  box.kern.swap().free(leaked);
  EXPECT_TRUE(box.kern.self_check().empty());

  SwapSlot named = 0;
  while (box.kern.swap().refcount(named) == 0) ++named;
  box.kern.swap().dup(named);
  EXPECT_FALSE(box.kern.self_check().empty()) << "count above PTE refs";
  box.kern.swap().free(named);
  EXPECT_TRUE(box.kern.self_check().empty());
}

class WaitModeTest : public test::TwoNodeFixture {};

TEST_F(WaitModeTest, WaitingCompletionChargesInterrupt) {
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64)));
  // Polling harvest of the send...
  const Nanos t0 = cluster->clock().now();
  ASSERT_TRUE(v0->send_done(vi0).has_value());
  const Nanos poll_cost = cluster->clock().now() - t0;
  // ...waiting harvest of the receive.
  const Nanos t1 = cluster->clock().now();
  ASSERT_TRUE(v1->recv_wait(vi1).has_value());
  const Nanos wait_cost = cluster->clock().now() - t1;
  EXPECT_GE(wait_cost, poll_cost + cluster->costs().interrupt_wakeup);
}

TEST_F(WaitModeTest, EmptyWaitChargesNoInterrupt) {
  const Nanos t0 = cluster->clock().now();
  EXPECT_FALSE(v0->send_wait(vi0).has_value());
  EXPECT_LT(cluster->clock().now() - t0, cluster->costs().interrupt_wakeup);
}

}  // namespace
}  // namespace vialock::simkern
