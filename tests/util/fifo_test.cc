// fifo_test.cc - util::Fifo, the growable ring behind the NIC's work and
// completion queues: order across wrap-around and growth, clear(), and
// move-only elements.
#include "util/fifo.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "util/rng.h"

namespace vialock {
namespace {

TEST(Fifo, KeepsOrderAcrossWrapAround) {
  Fifo<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(int{i});
  ASSERT_EQ(q.capacity(), 4u);
  // Pop two, push two: the tail wraps past the end of the storage.
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(q.pop_front(), 1);
  q.push_back(4);
  q.push_back(5);
  EXPECT_EQ(q.capacity(), 4u) << "no growth while there is room";
  for (int want = 2; want <= 5; ++want) EXPECT_EQ(q.pop_front(), want);
  EXPECT_TRUE(q.empty());
}

TEST(Fifo, GrowsWhileHeadIsNotZero) {
  Fifo<int> q;
  EXPECT_EQ(q.capacity(), 0u) << "no storage before the first push";
  q.push_back(0);
  EXPECT_EQ(q.capacity(), 2u);
  q.push_back(1);
  EXPECT_EQ(q.pop_front(), 0);
  q.push_back(2);  // wraps: slot 0 again, head at 1
  q.push_back(3);  // full with head != 0: doubles
  EXPECT_EQ(q.capacity(), 4u);
  q.push_back(4);
  q.push_back(5);  // full again after growth: doubles once more
  EXPECT_EQ(q.capacity(), 8u);
  ASSERT_EQ(q.size(), 5u);
  for (int want = 1; want <= 5; ++want) EXPECT_EQ(q.pop_front(), want);
}

TEST(Fifo, MatchesDequeOverInterleavedPushPop) {
  Fifo<std::uint64_t> q;
  std::deque<std::uint64_t> model;
  Rng rng(20261019);
  std::uint64_t next = 0;
  for (int op = 0; op < 10'000; ++op) {
    // Biased towards pushes so the ring grows through several sizes.
    if (model.empty() || rng.below(5) < 3) {
      q.push_back(std::uint64_t{next});
      model.push_back(next++);
    } else {
      ASSERT_EQ(q.pop_front(), model.front()) << "op " << op;
      model.pop_front();
    }
    ASSERT_EQ(q.size(), model.size()) << "op " << op;
    ASSERT_EQ(q.empty(), model.empty());
  }
  while (!model.empty()) {
    ASSERT_EQ(q.pop_front(), model.front());
    model.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(Fifo, ClearFreesStorageAndAllowsReuse) {
  Fifo<int> q;
  for (int i = 0; i < 5; ++i) q.push_back(int{i});
  EXPECT_EQ(q.pop_front(), 0);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
  q.push_back(7);
  q.push_back(8);
  q.push_back(9);
  EXPECT_EQ(q.pop_front(), 7);
  EXPECT_EQ(q.pop_front(), 8);
  EXPECT_EQ(q.pop_front(), 9);
  EXPECT_TRUE(q.empty());
}

TEST(Fifo, HoldsMoveOnlyElements) {
  Fifo<std::unique_ptr<int>> q;
  for (int i = 0; i < 6; ++i) q.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(*q.pop_front(), i);
  for (int i = 6; i < 9; ++i) q.push_back(std::make_unique<int>(i));
  for (int i = 3; i < 9; ++i) {
    const std::unique_ptr<int> p = q.pop_front();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
  // A moved-from ring is empty; the moved-to one holds the elements.
  q.push_back(std::make_unique<int>(42));
  Fifo<std::unique_ptr<int>> moved(std::move(q));
  EXPECT_TRUE(q.empty());  // NOLINT(bugprone-use-after-move)
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(*moved.pop_front(), 42);
}

}  // namespace
}  // namespace vialock
