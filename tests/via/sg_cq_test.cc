// sg_cq_test.cc - scatter/gather descriptors and completion queues.
#include <gtest/gtest.h>

#include <vector>

#include "via_util.h"

namespace vialock::via {
namespace {

using simkern::kPageSize;
using test::peek64;
using test::poke64;
using test::TwoNodeFixture;

class SgCqTest : public TwoNodeFixture {};

TEST_F(SgCqTest, GatherSendFromThreeSegments) {
  // Three disjoint pieces of the sender buffer, delivered contiguously.
  ASSERT_TRUE(ok(poke64(kern0(), p0, buf0 + 0 * kPageSize, 0xAAAA)));
  ASSERT_TRUE(ok(poke64(kern0(), p0, buf0 + 4 * kPageSize, 0xBBBB)));
  ASSERT_TRUE(ok(poke64(kern0(), p0, buf0 + 8 * kPageSize, 0xCCCC)));
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
  ASSERT_TRUE(ok(v0->post_send_sg(
      vi0, {DataSegment{mh0, buf0 + 0 * kPageSize, 8},
            DataSegment{mh0, buf0 + 4 * kPageSize, 8},
            DataSegment{mh0, buf0 + 8 * kPageSize, 8}})));
  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  ASSERT_EQ(sc->status, DescStatus::Done);
  EXPECT_EQ(sc->transferred, 24u);
  ASSERT_TRUE(v1->recv_done(vi1)->done_ok());
  EXPECT_EQ(peek64(kern1(), p1, buf1 + 0), 0xAAAAu);
  EXPECT_EQ(peek64(kern1(), p1, buf1 + 8), 0xBBBBu);
  EXPECT_EQ(peek64(kern1(), p1, buf1 + 16), 0xCCCCu);
}

TEST_F(SgCqTest, ScatterRecvAcrossSegments) {
  ASSERT_TRUE(ok(poke64(kern0(), p0, buf0 + 0, 0x1111)));
  ASSERT_TRUE(ok(poke64(kern0(), p0, buf0 + 8, 0x2222)));
  ASSERT_TRUE(ok(v1->post_recv_sg(
      vi1, {DataSegment{mh1, buf1 + 2 * kPageSize, 8},
            DataSegment{mh1, buf1 + 6 * kPageSize, 8}})));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 16)));
  ASSERT_TRUE(v0->send_done(vi0)->done_ok());
  ASSERT_TRUE(v1->recv_done(vi1)->done_ok());
  EXPECT_EQ(peek64(kern1(), p1, buf1 + 2 * kPageSize), 0x1111u);
  EXPECT_EQ(peek64(kern1(), p1, buf1 + 6 * kPageSize), 0x2222u);
}

TEST_F(SgCqTest, RecvLengthIsSumOfSegments) {
  // 40 bytes into 3 x 16-byte segments: fits (48 total).
  std::vector<std::byte> data(40);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i + 1);
  ASSERT_TRUE(ok(kern0().write_user(p0, buf0, data)));
  ASSERT_TRUE(ok(v1->post_recv_sg(vi1, {DataSegment{mh1, buf1, 16},
                                        DataSegment{mh1, buf1 + 100, 16},
                                        DataSegment{mh1, buf1 + 200, 16}})));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 40)));
  ASSERT_TRUE(v0->send_done(vi0)->done_ok());
  const auto rc = v1->recv_done(vi1);
  ASSERT_TRUE(rc->done_ok());
  EXPECT_EQ(rc->transferred, 40u);
  // Last segment only partially filled (8 of 16 bytes).
  std::vector<std::byte> out(8);
  ASSERT_TRUE(ok(kern1().read_user(p1, buf1 + 200, out)));
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(out[i], data[32 + i]) << "byte " << i;
}

TEST_F(SgCqTest, OverflowAcrossSegmentsIsLengthError) {
  ASSERT_TRUE(ok(v1->post_recv_sg(vi1, {DataSegment{mh1, buf1, 16},
                                        DataSegment{mh1, buf1 + 64, 16}})));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64)));  // 64 > 32
  EXPECT_EQ(v0->send_done(vi0)->status, DescStatus::ErrLength);
}

TEST_F(SgCqTest, TooManySegmentsRejected) {
  std::vector<DataSegment> segs(Descriptor::kMaxSegments + 1,
                                DataSegment{mh0, buf0, 8});
  EXPECT_EQ(v0->post_send_sg(vi0, segs), KStatus::Inval);
}

TEST_F(SgCqTest, SegmentProtectionCheckedIndividually) {
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
  // Second segment points outside the registered range.
  ASSERT_TRUE(ok(v0->post_send_sg(
      vi0, {DataSegment{mh0, buf0, 8},
            DataSegment{mh0, buf0 + kBufPages * kPageSize, 8}})));
  EXPECT_EQ(v0->send_done(vi0)->status, DescStatus::ErrProtection);
}

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

TEST_F(SgCqTest, RdmaReadIntoScatterSegments) {
  ASSERT_TRUE(ok(poke64(kern1(), p1, buf1, 0x9999)));
  ASSERT_TRUE(ok(poke64(kern1(), p1, buf1 + 8, 0x8888)));
  Descriptor d;
  d.op = DescOp::RdmaRead;
  d.local = DataSegment{mh0, buf0 + kPageSize, 8};
  d.remote = RemoteSegment{mh1, buf1};
  const DataSegment extra[] = {DataSegment{mh0, buf0 + 3 * kPageSize, 8}};
  ASSERT_TRUE(ok(cluster->node(n0).nic().post_send(vi0, d, extra)));
  ASSERT_TRUE(v0->send_done(vi0)->done_ok());
  EXPECT_EQ(peek64(kern0(), p0, buf0 + kPageSize), 0x9999u);
  EXPECT_EQ(peek64(kern0(), p0, buf0 + 3 * kPageSize), 0x8888u);
}

}  // namespace
}  // namespace vialock::via
