// sg_cq_test.cc - completion queues: routing a VI's completions to a shared
// CQ, and CQ misuse.
#include <gtest/gtest.h>

#include "via_util.h"

namespace vialock::via {
namespace {

using test::TwoNodeFixture;

class SgCqTest : public TwoNodeFixture {};

TEST_F(SgCqTest, CompletionQueueCollectsAcrossVis) {
  // Two VI pairs share one CQ on the receiver side.
  ViId vi0b = kInvalidVi;
  ViId vi1b = kInvalidVi;
  ASSERT_TRUE(ok(v0->create_vi(vi0b)));
  ASSERT_TRUE(ok(v1->create_vi(vi1b)));
  ASSERT_TRUE(ok(cluster->fabric().connect(n0, vi0b, n1, vi1b)));

  const CqId cq = v1->create_cq();
  ASSERT_TRUE(ok(v1->attach_recv_cq(vi1, cq)));
  ASSERT_TRUE(ok(v1->attach_recv_cq(vi1b, cq)));

  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64, /*cookie=*/1)));
  ASSERT_TRUE(ok(v1->post_recv(vi1b, mh1, buf1 + 128, 64, /*cookie=*/2)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 32)));
  ASSERT_TRUE(ok(v0->post_send(vi0b, mh0, buf0, 32)));

  const auto e1 = v1->cq_done(cq);
  const auto e2 = v1->cq_done(cq);
  ASSERT_TRUE(e1.has_value());
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e1->vi, vi1);
  EXPECT_EQ(e1->desc.cookie, 1u);
  EXPECT_EQ(e2->vi, vi1b);
  EXPECT_EQ(e2->desc.cookie, 2u);
  EXPECT_FALSE(e1->is_send);
  // Per-VI queues stay empty when a CQ is attached.
  EXPECT_FALSE(v1->recv_done(vi1).has_value());
  EXPECT_FALSE(v1->cq_done(cq).has_value());
}

TEST_F(SgCqTest, SendCompletionsRouteToSendCq) {
  const CqId cq = v0->create_cq();
  ASSERT_TRUE(ok(v0->attach_send_cq(vi0, cq)));
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 16, /*cookie=*/77)));
  EXPECT_FALSE(v0->send_done(vi0).has_value());
  const auto e = v0->cq_done(cq);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->is_send);
  EXPECT_EQ(e->desc.cookie, 77u);
  EXPECT_TRUE(e->desc.done_ok());
}

TEST_F(SgCqTest, CqMisuseIsRejected) {
  EXPECT_EQ(v1->attach_recv_cq(vi1, /*cq=*/999), KStatus::Inval);
  EXPECT_EQ(v1->attach_send_cq(9999, 0), KStatus::Inval);
  EXPECT_FALSE(v1->cq_done(/*cq=*/999).has_value());
  const CqId cq = v1->create_cq();
  EXPECT_FALSE(v1->cq_done(cq).has_value()) << "fresh CQ is empty";
}

}  // namespace
}  // namespace vialock::via
