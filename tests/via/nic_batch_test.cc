// nic_batch_test.cc - burst submission through a single doorbell ring.
//
// The S1 regression: a doorbell drop injected mid-burst must cost exactly the
// descriptor whose fetch it covered. The seed checked the fault once for the
// whole post_send_batch and dropped every descriptor behind it, so one
// injected drop silently lost the healthy remainder of the burst - these
// tests fail on that code for every drop position (head, middle, tail).
// Also pins post_recv_batch: one doorbell arms the whole recv chain and the
// slots drain in posted order; and a list of one, which posts exactly as a
// single post does.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault.h"
#include "via_util.h"

namespace vialock::via {
namespace {

class NicBatchTest : public test::TwoNodeFixture {
 protected:
  /// Arm one rule cluster-wide; each arm() replaces the engine, restarting
  /// the per-site event counts.
  void arm(const fault::FaultRule& rule, std::uint64_t seed = 1) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.add(rule);
    engine.emplace(std::move(plan), cluster->clock());
    cluster->inject_faults(&*engine);
  }

  /// Post a 3-descriptor send burst (cookies 1,2,3) with the doorbell-drop
  /// rule armed to eat descriptor `victim`, and assert only that descriptor
  /// is lost: the other two complete on both sides.
  void run_drop_at(std::uint64_t victim) {
    // Receive slots first - single post_recv has no fault hook, so the
    // armed NicDoorbell window starts exactly at the send burst.
    for (std::uint64_t i = 1; i <= 3; ++i)
      ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1 + (i - 1) * 64, 64, i)));

    arm({.site = fault::FaultSite::NicDoorbell,
         .action = fault::FaultAction::Drop,
         .probability = 1.0,
         .after_events = victim,
         .max_triggers = 1});
    const std::vector<Vipl::SendPost> burst = {
        {mh0, buf0 + 0 * 64, 64, 1},
        {mh0, buf0 + 1 * 64, 64, 2},
        {mh0, buf0 + 2 * 64, 64, 3},
    };
    ASSERT_TRUE(ok(v0->post_send_batch(vi0, burst)));

    const NicStats& s = cluster->node(n0).nic().stats();
    EXPECT_EQ(s.doorbells_dropped, 1u);
    EXPECT_EQ(s.doorbell_batches, 1u);
    EXPECT_EQ(s.sends_posted, 3u);  // posted counts the ring, not survival

    // Exactly the two survivors complete, in order, on the sender...
    const std::uint64_t victim_cookie = victim + 1;
    std::vector<std::uint64_t> sent;
    while (const auto d = v0->send_done(vi0)) {
      EXPECT_EQ(d->status, DescStatus::Done);
      sent.push_back(d->cookie);
    }
    ASSERT_EQ(sent.size(), 2u) << "drop at burst position " << victim;
    for (const std::uint64_t c : sent) EXPECT_NE(c, victim_cookie);

    // ...and on the receiver, which never sees the vanished descriptor.
    std::uint64_t received = 0;
    while (const auto d = v1->recv_done(vi1)) {
      EXPECT_EQ(d->status, DescStatus::Done);
      ++received;
    }
    EXPECT_EQ(received, 2u);
    cluster->inject_faults(nullptr);
  }

  std::optional<fault::FaultEngine> engine;
};

TEST_F(NicBatchTest, MidBurstDropLosesOnlyTheHeadDescriptor) { run_drop_at(0); }
TEST_F(NicBatchTest, MidBurstDropLosesOnlyTheMiddleDescriptor) { run_drop_at(1); }
TEST_F(NicBatchTest, MidBurstDropLosesOnlyTheTailDescriptor) { run_drop_at(2); }

TEST_F(NicBatchTest, RecvBatchArmsRingBehindOneDoorbell) {
  const NicStats& s1 = cluster->node(n1).nic().stats();
  const std::uint64_t doorbells_before = s1.doorbells;
  const std::uint64_t batches_before = s1.doorbell_batches;

  const std::vector<Vipl::RecvPost> ring = {
      {mh1, buf1 + 0 * 64, 64, 10},
      {mh1, buf1 + 1 * 64, 64, 11},
      {mh1, buf1 + 2 * 64, 64, 12},
  };
  ASSERT_TRUE(ok(v1->post_recv_batch(vi1, ring)));
  EXPECT_EQ(s1.doorbells, doorbells_before + 1);
  EXPECT_EQ(s1.doorbell_batches, batches_before + 1);
  EXPECT_EQ(s1.recvs_posted, 3u);

  // The batched slots drain in posted order as singles sends arrive.
  for (std::uint64_t i = 0; i < 3; ++i)
    ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0 + i * 64, 64, i)));
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto d = v1->recv_done(vi1);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->status, DescStatus::Done);
    EXPECT_EQ(d->cookie, 10 + i);
  }
  EXPECT_FALSE(v1->recv_done(vi1).has_value());
}

class NicBatch : public test::TwoNodeFixture {};

TEST_F(NicBatch, ListOfOnePostsLikeASinglePost) {
  // A list of one is a plain post on both work queues: no burst counted,
  // no descs_per_ring sample, and the same virtual time as a single post.
  const NicStats& s0 = cluster->node(n0).nic().stats();
  const NicStats& s1 = cluster->node(n1).nic().stats();
  const obs::Histogram& rings0 =
      kern0().metrics().histogram("via.nic.descs_per_ring");
  const obs::Histogram& rings1 =
      kern1().metrics().histogram("via.nic.descs_per_ring");
  const std::uint64_t batches0 = s0.doorbell_batches;
  const std::uint64_t batches1 = s1.doorbell_batches;
  const std::uint64_t samples0 = rings0.count();
  const std::uint64_t samples1 = rings1.count();
  const auto charge = [&](const auto& post) {
    const Nanos before = cluster->clock().now();
    post();
    return cluster->clock().now() - before;
  };

  const std::vector<Vipl::RecvPost> one_recv = {{mh1, buf1 + 64, 64, 2}};
  const Nanos single_recv =
      charge([&] { ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64, 1))); });
  const Nanos listed_recv =
      charge([&] { ASSERT_TRUE(ok(v1->post_recv_batch(vi1, one_recv))); });
  EXPECT_EQ(listed_recv, single_recv);

  const std::vector<Vipl::SendPost> one_send = {{mh0, buf0 + 64, 64, 2}};
  const Nanos single_send =
      charge([&] { ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64, 1))); });
  const Nanos listed_send =
      charge([&] { ASSERT_TRUE(ok(v0->post_send_batch(vi0, one_send))); });
  EXPECT_EQ(listed_send, single_send);

  EXPECT_EQ(s0.doorbell_batches, batches0);
  EXPECT_EQ(s1.doorbell_batches, batches1);
  EXPECT_EQ(rings0.count(), samples0);
  EXPECT_EQ(rings1.count(), samples1);
  for (std::uint64_t cookie = 1; cookie <= 2; ++cookie) {
    const auto sent = v0->send_done(vi0);
    const auto got = v1->recv_done(vi1);
    ASSERT_TRUE(sent && got);
    EXPECT_TRUE(sent->done_ok());
    EXPECT_EQ(sent->cookie, cookie);
    EXPECT_TRUE(got->done_ok());
    EXPECT_EQ(got->cookie, cookie);
  }
}

TEST_F(NicBatchTest, EmptyBatchesAreFreeNoops) {
  const NicStats& s = cluster->node(n0).nic().stats();
  ASSERT_TRUE(ok(v0->post_send_batch(vi0, {})));
  ASSERT_TRUE(ok(v0->post_recv_batch(vi0, {})));
  EXPECT_EQ(s.doorbells, 0u);
  EXPECT_EQ(s.doorbell_batches, 0u);
}

}  // namespace
}  // namespace vialock::via
