// fabric_test.cc - fabric-level connection management: connect() and
// VipDisconnect edge cases.
#include "via/fabric.h"

#include <gtest/gtest.h>

#include "via_util.h"

namespace vialock::via {
namespace {

using simkern::kPageSize;
using test::must_mmap;

/// Like TwoNodeFixture but without a pre-made connection.
class FabricTest : public test::TwoNodeFixture {
 protected:
  void SetUp() override {
    // Build the fixture, then tear its connection down so tests start from
    // unconnected VIs.
    test::TwoNodeFixture::SetUp();
    ASSERT_TRUE(ok(cluster->fabric().disconnect(n0, vi0)));
    cluster->node(n1).nic().vi(vi1).state = ViState::Idle;
    cluster->node(n1).nic().vi(vi1).peer_node = kInvalidNode;
    cluster->node(n1).nic().vi(vi1).peer_vi = kInvalidVi;
  }
};

TEST_F(FabricTest, DisconnectFreesLocalSideAndBreaksPeer) {
  Fabric& fabric = cluster->fabric();
  ASSERT_TRUE(ok(fabric.connect(n0, vi0, n1, vi1)));
  ASSERT_TRUE(ok(fabric.disconnect(n0, vi0)));
  EXPECT_EQ(cluster->node(n0).nic().vi(vi0).state, ViState::Idle);
  EXPECT_EQ(cluster->node(n1).nic().vi(vi1).state, ViState::Error);
  // The freed VI can connect again.
  ViId vi1b = kInvalidVi;
  ASSERT_TRUE(ok(v1->create_vi(vi1b)));
  EXPECT_TRUE(ok(fabric.connect(n0, vi0, n1, vi1b)));
}

TEST_F(FabricTest, SendAfterPeerDisconnectFails) {
  Fabric& fabric = cluster->fabric();
  ASSERT_TRUE(ok(fabric.connect(n0, vi0, n1, vi1)));
  ASSERT_TRUE(ok(fabric.disconnect(n1, vi1)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64)));
  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrDisconnected);
}

TEST_F(FabricTest, DisconnectOfUnconnectedViIsProtocolError) {
  EXPECT_EQ(cluster->fabric().disconnect(n0, vi0), KStatus::Proto);
}

TEST_F(FabricTest, ConnectRejectsBusyEndpoints) {
  Fabric& fabric = cluster->fabric();
  ASSERT_TRUE(ok(fabric.connect(n0, vi0, n1, vi1)));
  ViId vi0b = kInvalidVi;
  ASSERT_TRUE(ok(v0->create_vi(vi0b)));
  EXPECT_EQ(fabric.connect(n0, vi0b, n1, vi1), KStatus::Busy);
}

TEST_F(FabricTest, EndToEndAfterClientServerConnect) {
  Fabric& fabric = cluster->fabric();
  ASSERT_TRUE(ok(fabric.connect(n0, vi0, n1, vi1)));
  ASSERT_TRUE(ok(test::poke64(kern0(), p0, buf0, 0x5151)));
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64)));
  ASSERT_TRUE(v0->send_done(vi0)->done_ok());
  ASSERT_TRUE(v1->recv_done(vi1)->done_ok());
  EXPECT_EQ(test::peek64(kern1(), p1, buf1), 0x5151u);
}

}  // namespace
}  // namespace vialock::via
