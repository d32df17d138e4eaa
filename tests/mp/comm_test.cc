// comm_test.cc - the MPI-flavoured layer: tag/source matching, unexpected
// queues, ANY_SOURCE, nonblocking requests, rendezvous pull, ordering.
#include "mp/comm.h"

#include <gtest/gtest.h>

#include <vector>

#include "../via/via_util.h"
#include "util/rng.h"

namespace vialock::mp {
namespace {

struct CommBox {
  explicit CommBox(std::uint32_t ranks = 3, Comm::Config cfg = Comm::Config{}) {
    std::vector<via::NodeId> nodes;
    for (std::uint32_t i = 0; i < ranks; ++i) {
      nodes.push_back(cluster.add_node(test::small_node(
          via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048)));
    }
    comm = std::make_unique<Comm>(cluster, nodes, cfg);
    EXPECT_TRUE(ok(comm->init()));
  }
  via::Cluster cluster;
  std::unique_ptr<Comm> comm;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

TEST(Comm, EagerSendRecvRoundTrip) {
  CommBox box;
  const auto payload = pattern(512, 1);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  const ReqId r = box.comm->irecv(1, 0, /*tag=*/5, 0, 4096);
  const ReqId s = box.comm->isend(0, 1, /*tag=*/5, 0, 512);
  MpStatus st;
  ASSERT_TRUE(box.comm->wait(s));
  ASSERT_TRUE(box.comm->wait(r, &st));
  EXPECT_EQ(st.source, 0u);
  EXPECT_EQ(st.tag, 5);
  EXPECT_EQ(st.len, 512u);
  std::vector<std::byte> out(512);
  ASSERT_TRUE(ok(box.comm->fetch(1, 0, out)));
  EXPECT_EQ(payload, out);
  EXPECT_EQ(box.comm->stats().eager_sends, 1u);
}

TEST(Comm, RendezvousSendRecvRoundTrip) {
  CommBox box;
  const auto payload = pattern(128 * 1024, 2);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  const ReqId r = box.comm->irecv(2, 0, 9, 0, 256 * 1024);
  const ReqId s = box.comm->isend(0, 2, 9, 0, 128 * 1024);
  MpStatus st;
  ASSERT_TRUE(box.comm->wait(r, &st));
  ASSERT_TRUE(box.comm->wait(s)) << "FIN must have completed the sender";
  EXPECT_EQ(st.len, 128u * 1024);
  std::vector<std::byte> out(payload.size());
  ASSERT_TRUE(ok(box.comm->fetch(2, 0, out)));
  EXPECT_EQ(payload, out);
  EXPECT_EQ(box.comm->stats().rendezvous_sends, 1u);
  EXPECT_EQ(box.comm->stats().rdma_pulls, 1u);
}

TEST(Comm, UnexpectedEagerMessageIsBufferedAndMatchedLater) {
  CommBox box;
  const auto payload = pattern(256, 3);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  const ReqId s = box.comm->isend(0, 1, 7, 0, 256);  // no receive posted
  ASSERT_TRUE(box.comm->wait(s));
  EXPECT_EQ(box.comm->stats().unexpected_msgs, 1u);
  // The late receive finds it in the unexpected queue.
  MpStatus st;
  ASSERT_TRUE(ok(box.comm->recv(1, 0, 7, 0, 1024, &st)));
  EXPECT_EQ(st.len, 256u);
  std::vector<std::byte> out(256);
  ASSERT_TRUE(ok(box.comm->fetch(1, 0, out)));
  EXPECT_EQ(payload, out);
}

TEST(Comm, UnexpectedRendezvousCarriesNoPayloadUntilMatched) {
  CommBox box;
  const auto payload = pattern(64 * 1024, 4);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  const ReqId s = box.comm->isend(0, 1, 1, 0, 64 * 1024);
  EXPECT_FALSE(box.comm->test(s)) << "rendezvous send pending without recv";
  EXPECT_EQ(box.comm->stats().rdma_pulls, 0u) << "no data moved yet";
  MpStatus st;
  ASSERT_TRUE(ok(box.comm->recv(1, 0, 1, 0, 64 * 1024, &st)));
  EXPECT_EQ(box.comm->stats().rdma_pulls, 1u);
  ASSERT_TRUE(box.comm->wait(s));
  std::vector<std::byte> out(payload.size());
  ASSERT_TRUE(ok(box.comm->fetch(1, 0, out)));
  EXPECT_EQ(payload, out);
}

TEST(Comm, TagsAreMatchedExactly) {
  CommBox box;
  const auto a = pattern(64, 5);
  const auto b = pattern(64, 6);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, a)));
  ASSERT_TRUE(ok(box.comm->stage(0, 4096, b)));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, /*tag=*/10, 0, 64)));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, /*tag=*/20, 4096, 64)));
  // Receive tag 20 FIRST although it arrived second.
  MpStatus st;
  ASSERT_TRUE(ok(box.comm->recv(1, 0, 20, 0, 1024, &st)));
  std::vector<std::byte> out(64);
  ASSERT_TRUE(ok(box.comm->fetch(1, 0, out)));
  EXPECT_EQ(out, b);
  ASSERT_TRUE(ok(box.comm->recv(1, 0, 10, 0, 1024, &st)));
  ASSERT_TRUE(ok(box.comm->fetch(1, 0, out)));
  EXPECT_EQ(out, a);
}

TEST(Comm, SameTagMessagesArriveInOrder) {
  // MPI non-overtaking rule for identical (source, tag).
  CommBox box;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t v = 100 + i;
    ASSERT_TRUE(ok(box.comm->stage(0, i * 64, test::bytes_of(v))));
    ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, 3, i * 64, 8)));
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ok(box.comm->recv(1, 0, 3, 0, 64)));
    std::uint64_t got = 0;
    ASSERT_TRUE(ok(box.comm->fetch(
        1, 0, std::as_writable_bytes(std::span{&got, 1}))));
    EXPECT_EQ(got, 100u + i) << "message " << i << " overtaken";
  }
}

TEST(Comm, AnySourceReceivesFromWhoeverSent) {
  CommBox box(4);
  const std::uint64_t v = 0xFACE;
  ASSERT_TRUE(ok(box.comm->stage(2, 0, test::bytes_of(v))));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(2, 0, 5, 0, 8)));
  MpStatus st;
  ASSERT_TRUE(ok(box.comm->recv(0, kAnySource, 5, 0, 64, &st)));
  EXPECT_EQ(st.source, 2u);
  std::uint64_t got = 0;
  ASSERT_TRUE(
      ok(box.comm->fetch(0, 0, std::as_writable_bytes(std::span{&got, 1}))));
  EXPECT_EQ(got, 0xFACEu);
}

TEST(Comm, AnyTagMatchesFirstArrival) {
  CommBox box;
  const std::uint64_t v = 77;
  ASSERT_TRUE(ok(box.comm->stage(0, 0, test::bytes_of(v))));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, 42, 0, 8)));
  MpStatus st;
  ASSERT_TRUE(ok(box.comm->recv(1, 0, kAnyTag, 0, 64, &st)));
  EXPECT_EQ(st.tag, 42);
}

TEST(Comm, PostedAnySourceMatchesLaterArrival) {
  CommBox box(3);
  const ReqId r = box.comm->irecv(0, kAnySource, kAnyTag, 0, 64);
  EXPECT_FALSE(box.comm->test(r));
  const std::uint64_t v = 31337;
  ASSERT_TRUE(ok(box.comm->stage(1, 0, test::bytes_of(v))));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(1, 0, 8, 0, 8)));
  MpStatus st;
  ASSERT_TRUE(box.comm->wait(r, &st));
  EXPECT_EQ(st.source, 1u);
  EXPECT_EQ(st.tag, 8);
}

TEST(Comm, IprobeSeesUnexpectedWithoutConsuming) {
  CommBox box;
  const std::uint64_t v = 1;
  ASSERT_TRUE(ok(box.comm->stage(0, 0, test::bytes_of(v))));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, 6, 0, 8)));
  MpStatus st;
  EXPECT_TRUE(box.comm->iprobe(1, 0, 6, &st));
  EXPECT_EQ(st.len, 8u);
  EXPECT_TRUE(box.comm->iprobe(1, kAnySource, kAnyTag));
  EXPECT_FALSE(box.comm->iprobe(1, 2, kAnyTag));
  EXPECT_FALSE(box.comm->iprobe(1, 0, 99));
  // Still receivable afterwards.
  ASSERT_TRUE(ok(box.comm->recv(1, 0, 6, 0, 64)));
  EXPECT_FALSE(box.comm->iprobe(1, 0, 6));
}

TEST(Comm, TruncationFailsTheReceive) {
  CommBox box;
  const auto payload = pattern(512, 7);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, 2, 0, 512)));
  EXPECT_EQ(box.comm->recv(1, 0, 2, 0, /*max_len=*/128), KStatus::Again)
      << "truncated receive must not report success";
}

// A long receive that fails after matching (here: truncation) fails only the
// receiver. The sender still gets its FIN, so its request completes and its
// source registration goes idle, as in MPI, where only the receiver reports
// the truncation.
TEST(Comm, FailedLongReceiveReleasesTheSender) {
  constexpr std::uint32_t kLen = 64 * 1024;
  const auto payload = pattern(kLen, 11);
  // Fabric link: the sender's node keeps no more pins after ~Comm than a
  // run whose receive fits.
  const auto sender_pins_after = [&](std::uint32_t max_len) {
    via::Cluster cluster;
    std::vector<via::NodeId> nodes;
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(cluster.add_node(test::small_node(
          via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048)));
    }
    {
      Comm comm(cluster, nodes);
      EXPECT_TRUE(ok(comm.init()));
      EXPECT_TRUE(ok(comm.stage(0, 0, payload)));
      const ReqId r = comm.irecv(1, 0, 3, 0, max_len);
      const ReqId s = comm.isend(0, 1, 3, 0, kLen);
      EXPECT_EQ(comm.wait(r), max_len >= kLen);
      EXPECT_TRUE(comm.wait(s)) << "the FIN must complete the sender";
    }
    for (const via::NodeId n : nodes) test::expect_quiescent(cluster.node(n));
    return cluster.node(nodes[0]).kernel().pinned_frames();
  };
  EXPECT_EQ(sender_pins_after(1024), sender_pins_after(kLen));

  // Shared-memory link, receive posted after the message arrived.
  via::Cluster cluster;
  const via::NodeId n = cluster.add_node(test::small_node(
      via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048));
  {
    Comm comm(cluster, {n, n});
    ASSERT_TRUE(ok(comm.init()));
    ASSERT_TRUE(comm.uses_shm(0, 1));
    ASSERT_TRUE(ok(comm.stage(0, 0, payload)));
    const ReqId s = comm.isend(0, 1, 3, 0, kLen);
    EXPECT_FALSE(comm.wait(comm.irecv(1, 0, 3, 0, 1024)));
    EXPECT_TRUE(comm.wait(s)) << "the FIN must complete the local sender";
  }
  test::expect_quiescent(cluster.node(n));
}

// A node-local link pipelines through a shared segment that outlives its
// attachments: ~Comm removes it once both ranks are gone, or every Comm
// leaves the frames its exchanges touched allocated on the node.
TEST(Comm, DestroyedLocalLinkReturnsItsSharedMemory) {
  via::Cluster cluster;
  const via::NodeId n = cluster.add_node(test::small_node(
      via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048));
  const std::uint32_t free_before = cluster.node(n).kernel().free_frames();
  {
    Comm comm(cluster, {n, n});
    ASSERT_TRUE(ok(comm.init()));
    ASSERT_TRUE(comm.uses_shm(0, 1));
    ASSERT_TRUE(ok(comm.stage(0, 0, pattern(512, 12))));
    const ReqId r = comm.irecv(1, 0, 4, 0, 4096);
    ASSERT_TRUE(comm.wait(comm.isend(0, 1, 4, 0, 512)));
    ASSERT_TRUE(comm.wait(r));
    ASSERT_EQ(comm.stats().local_msgs, 1u);
  }
  EXPECT_EQ(cluster.node(n).kernel().free_frames(), free_before);
  test::expect_quiescent(cluster.node(n));
}

TEST(Comm, PostedQueueMatchesInPostOrder) {
  CommBox box;
  // Two receives, both match (source 0, tag 1); first-posted gets the
  // first message.
  const ReqId r1 = box.comm->irecv(1, 0, 1, /*offset=*/0, 64);
  const ReqId r2 = box.comm->irecv(1, 0, 1, /*offset=*/4096, 64);
  const std::uint64_t a = 0xA;
  const std::uint64_t b = 0xB;
  ASSERT_TRUE(ok(box.comm->stage(0, 0, test::bytes_of(a))));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, 1, 0, 8)));
  ASSERT_TRUE(ok(box.comm->stage(0, 0, test::bytes_of(b))));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, 1, 0, 8)));
  ASSERT_TRUE(box.comm->wait(r1));
  ASSERT_TRUE(box.comm->wait(r2));
  std::uint64_t g1 = 0;
  std::uint64_t g2 = 0;
  ASSERT_TRUE(
      ok(box.comm->fetch(1, 0, std::as_writable_bytes(std::span{&g1, 1}))));
  ASSERT_TRUE(ok(
      box.comm->fetch(1, 4096, std::as_writable_bytes(std::span{&g2, 1}))));
  EXPECT_EQ(g1, 0xAu);
  EXPECT_EQ(g2, 0xBu);
}

TEST(Comm, RendezvousReusesRegistrationCache) {
  CommBox box;
  const auto payload = pattern(64 * 1024, 8);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  for (int i = 0; i < 6; ++i) {
    const ReqId r = box.comm->irecv(1, 0, 4, 0, 64 * 1024);
    const ReqId s = box.comm->isend(0, 1, 4, 0, 64 * 1024);
    ASSERT_TRUE(box.comm->wait(r));
    ASSERT_TRUE(box.comm->wait(s));
  }
  EXPECT_EQ(box.comm->stats().rdma_pulls, 6u);
  // Virtual-time check of amortisation: warm iterations must be cheaper
  // than the cold one (registration is off the path).
}

TEST(Comm, IprobeReportsRendezvousLengthWithoutMovingData) {
  // A parked rendezvous REQ carries only a descriptor; iprobe must still
  // report the full message length (MPI_Probe semantics) without pulling.
  CommBox box;
  const auto payload = pattern(96 * 1024, 21);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  const ReqId s = box.comm->isend(0, 1, 3, 0, 96 * 1024);
  MpStatus st;
  ASSERT_TRUE(box.comm->iprobe(1, 0, 3, &st));
  EXPECT_EQ(st.len, 96u * 1024);
  EXPECT_EQ(box.comm->stats().rdma_pulls, 0u) << "probe must not pull";
  ASSERT_TRUE(ok(box.comm->recv(1, 0, 3, 0, 128 * 1024)));
  ASSERT_TRUE(box.comm->wait(s));
  EXPECT_EQ(box.comm->stats().rdma_pulls, 1u);
}

TEST(Comm, ArenaSlotsAreRecycled) {
  // More unexpected messages than arena slots, consumed in waves: the arena
  // must recycle rather than overflow.
  Comm::Config cfg;
  cfg.unexpected_slots = 4;
  CommBox box(2, cfg);
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t v = wave * 10 + i;
      ASSERT_TRUE(ok(box.comm->stage(0, 0, test::bytes_of(v))));
      ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, i, 0, 8)));
    }
    for (int i = 0; i < 4; ++i) {
      MpStatus st;
      ASSERT_TRUE(ok(box.comm->recv(1, 0, i, 0, 64, &st))) << wave << "/" << i;
      std::uint64_t got = 0;
      ASSERT_TRUE(ok(box.comm->fetch(
          1, 0, std::as_writable_bytes(std::span{&got, 1}))));
      ASSERT_EQ(got, static_cast<std::uint64_t>(wave * 10 + i));
    }
  }
}

TEST(Comm, ManyRandomMessagesAllDeliverIntact) {
  CommBox box(3);
  Rng rng(99);
  struct Msg {
    Rank from, to;
    std::int32_t tag;
    std::vector<std::byte> data;
  };
  std::vector<Msg> msgs;
  for (int i = 0; i < 30; ++i) {
    Msg m;
    m.from = static_cast<Rank>(rng.below(3));
    do {
      m.to = static_cast<Rank>(rng.below(3));
    } while (m.to == m.from);
    m.tag = static_cast<std::int32_t>(rng.below(4));
    m.data = pattern(64 + rng.below(2048), 1000 + i);
    msgs.push_back(std::move(m));
  }
  // Send everything first (all land unexpected), then receive in a shuffled
  // order by (source, tag) FIFO.
  for (const auto& m : msgs) {
    ASSERT_TRUE(ok(box.comm->stage(m.from, 0, m.data)));
    ASSERT_TRUE(box.comm->wait(box.comm->isend(
        m.from, m.to, m.tag, 0, static_cast<std::uint32_t>(m.data.size()))));
  }
  // Receive: for each message in order, the earliest unreceived message with
  // the same (from, to, tag) is what FIFO gives us; our emission order IS
  // that order, so receiving in emission order must reproduce the data.
  for (const auto& m : msgs) {
    MpStatus st;
    ASSERT_TRUE(ok(box.comm->recv(m.to, static_cast<std::int32_t>(m.from),
                                  m.tag, 8192, 64 * 1024, &st)));
    ASSERT_EQ(st.len, m.data.size());
    std::vector<std::byte> out(m.data.size());
    ASSERT_TRUE(ok(box.comm->fetch(m.to, 8192, out)));
    ASSERT_EQ(out, m.data);
  }
}

}  // namespace
}  // namespace vialock::mp
