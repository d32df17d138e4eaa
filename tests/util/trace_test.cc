// trace_test.cc - the event-trace ring and its kernel hooks.
#include "util/trace.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace vialock {
namespace {

using simkern::kPageSize;
using test::KernelBox;
using test::must_mmap;

TEST(TraceRing, RecordsInOrderAndWraps) {
  TraceRing ring(4);
  ring.enable(true);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ring.record(i * 100, TraceEvent::MinorFault, i, 0, 0);
  }
  EXPECT_EQ(ring.size(), 4u);
  const auto tail = ring.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().pid, 2u);  // events 0,1 overwritten
  EXPECT_EQ(tail.back().pid, 5u);
  EXPECT_EQ(ring.tail(2).size(), 2u);
  EXPECT_EQ(ring.tail(2).front().pid, 4u);
}

TEST(TraceRing, DisabledRecordsNothing) {
  TraceRing ring(8);
  ring.record(1, TraceEvent::SwapOut, 1, 2, 3);
  EXPECT_EQ(ring.size(), 0u);
}

// The ring's storage arrives with the first enable(true); the observable
// behaviour is the same as a ring allocated up front.
TEST(TraceRing, StorageArrivesWithEnable) {
  TraceRing ring(4);
  for (std::uint32_t i = 0; i < 3; ++i)
    ring.record(i, TraceEvent::SwapOut, i, 0, 0);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.tail().empty());

  ring.enable(true);
  for (std::uint32_t i = 0; i < 6; ++i)
    ring.record(i, TraceEvent::SwapOut, i, 0, 0);
  ring.enable(false);
  ring.record(99, TraceEvent::SwapOut, 99, 0, 0);
  ring.enable(true);
  const auto tail = ring.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().pid, 2u);
  EXPECT_EQ(tail.back().pid, 5u) << "disabled record was kept";

  ring.record(6, TraceEvent::SwapIn, 6, 0, 0);
  EXPECT_EQ(ring.tail().front().pid, 3u);
  EXPECT_EQ(ring.tail().back().pid, 6u);
}

TEST(TraceRing, EntryFormatsReadably) {
  TraceRing::Entry e{1234, TraceEvent::SwapOut, 7, 0xABC000, 42};
  const std::string s = e.to_string();
  EXPECT_NE(s.find("swap-out"), std::string::npos);
  EXPECT_NE(s.find("pid=7"), std::string::npos);
  EXPECT_NE(s.find("0xabc000"), std::string::npos);
  EXPECT_NE(s.find("pfn=42"), std::string::npos);
}

TEST(TraceKernel, FaultAndSwapEventsAppear) {
  KernelBox box;
  box.kern.trace().enable(true);
  const auto pid = box.kern.create_task("t");
  const auto a = must_mmap(box.kern, pid, 2);
  ASSERT_TRUE(ok(box.kern.touch(pid, a, true)));
  box.kern.task(pid).mm.pt.walk(a)->accessed = false;
  (void)box.kern.try_to_free_pages(1);
  ASSERT_TRUE(ok(box.kern.touch(pid, a, true)));  // major fault back in

  bool saw_minor = false;
  bool saw_swapout = false;
  bool saw_major = false;
  for (const auto& e : box.kern.trace().tail()) {
    saw_minor |= e.event == TraceEvent::MinorFault;
    saw_swapout |= e.event == TraceEvent::SwapOut;
    saw_major |= e.event == TraceEvent::MajorFault;
  }
  EXPECT_TRUE(saw_minor);
  EXPECT_TRUE(saw_swapout);
  EXPECT_TRUE(saw_major);
}

TEST(TraceKernel, PinEventsFollowKiobufLifecycle) {
  KernelBox box;
  box.kern.trace().enable(true);
  const auto pid = box.kern.create_task("t");
  const auto a = must_mmap(box.kern, pid, 2);
  simkern::Kiobuf kb = box.kern.alloc_kiovec();
  ASSERT_TRUE(ok(box.kern.map_user_kiobuf(pid, kb, a, 2 * kPageSize)));
  box.kern.unmap_kiobuf(kb);
  int pins = 0;
  int unpins = 0;
  for (const auto& e : box.kern.trace().tail()) {
    pins += e.event == TraceEvent::PagePinned;
    unpins += e.event == TraceEvent::PageUnpinned;
  }
  EXPECT_EQ(pins, 2);
  EXPECT_EQ(unpins, 2);
}

TEST(TraceKernel, TracingOffByDefaultAndCostFree) {
  KernelBox box;
  const auto pid = box.kern.create_task("t");
  const auto a = must_mmap(box.kern, pid, 4);
  for (int p = 0; p < 4; ++p)
    ASSERT_TRUE(ok(box.kern.touch(pid, a + p * kPageSize, true)));
  EXPECT_EQ(box.kern.trace().size(), 0u);
}

}  // namespace
}  // namespace vialock
