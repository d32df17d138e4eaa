// collectives_test.cc - MPI-style collectives over the matching layer,
// including mixed shm/fabric topologies.
#include "mp/collectives.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "../via/via_util.h"
#include "util/rng.h"

namespace vialock::mp {
namespace {

struct CollBox {
  /// `layout[i]` gives the node index (0..) rank i lives on.
  explicit CollBox(std::vector<int> layout) {
    int max_node = 0;
    for (const int n : layout) max_node = std::max(max_node, n);
    std::vector<via::NodeId> node_ids;
    for (int n = 0; n <= max_node; ++n) {
      node_ids.push_back(cluster.add_node(test::small_node(
          via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048)));
    }
    std::vector<via::NodeId> rank_nodes;
    for (const int n : layout) rank_nodes.push_back(node_ids[n]);
    comm = std::make_unique<Comm>(cluster, rank_nodes);
    EXPECT_TRUE(ok(comm->init()));
  }
  via::Cluster cluster;
  std::unique_ptr<Comm> comm;
};

TEST(Collectives, UserTagsMayNotBeNegative) {
  CollBox box({0, 1});
  EXPECT_EQ(box.comm->isend(0, 1, -5, 0, 8), kInvalidReq);
  EXPECT_EQ(box.comm->irecv(1, 0, -5, 0, 8), kInvalidReq);
  EXPECT_NE(box.comm->irecv(1, 0, kAnyTag, 0, 8), kInvalidReq);
}

TEST(Collectives, BroadcastAcrossFourRanks) {
  CollBox box({0, 0, 1, 1});  // mixed shm + fabric
  const std::uint64_t v = 0xB0CA57;
  ASSERT_TRUE(ok(box.comm->stage(2, 0, test::bytes_of(v))));
  ASSERT_TRUE(ok(broadcast(*box.comm, /*root=*/2, 0, 8)));
  for (Rank r = 0; r < 4; ++r) {
    std::uint64_t got = 0;
    ASSERT_TRUE(ok(box.comm->fetch(
        r, 0, std::as_writable_bytes(std::span{&got, 1}))));
    EXPECT_EQ(got, v) << "rank " << r;
  }
}

TEST(Collectives, ReduceSumToArbitraryRoot) {
  CollBox box({0, 1, 0});
  constexpr std::uint32_t kCount = 8;
  std::array<std::uint64_t, kCount> expect{};
  for (Rank r = 0; r < 3; ++r) {
    std::array<std::uint64_t, kCount> vals;
    for (std::uint32_t i = 0; i < kCount; ++i) {
      vals[i] = (r + 1) * 10 + i;
      expect[i] += vals[i];
    }
    ASSERT_TRUE(ok(box.comm->stage(r, 0, std::as_bytes(std::span{vals}))));
  }
  ASSERT_TRUE(ok(reduce_sum(*box.comm, /*root=*/1, 0, kCount, 4096)));
  std::array<std::uint64_t, kCount> got{};
  ASSERT_TRUE(
      ok(box.comm->fetch(1, 0, std::as_writable_bytes(std::span{got}))));
  EXPECT_EQ(got, expect);
}

TEST(Collectives, AllreduceAgreesEverywhere) {
  CollBox box({0, 0, 1, 1, 1});  // five ranks, non-power-of-two
  std::uint64_t expect = 0;
  for (Rank r = 0; r < 5; ++r) {
    const std::uint64_t v = 1ULL << r;
    expect += v;
    ASSERT_TRUE(ok(box.comm->stage(r, 0, test::bytes_of(v))));
  }
  ASSERT_TRUE(ok(allreduce_sum(*box.comm, 0, 1, 4096)));
  for (Rank r = 0; r < 5; ++r) {
    std::uint64_t got = 0;
    ASSERT_TRUE(ok(box.comm->fetch(
        r, 0, std::as_writable_bytes(std::span{&got, 1}))));
    EXPECT_EQ(got, expect) << "rank " << r;
  }
}

TEST(Collectives, GatherAssemblesBlocksAtRoot) {
  CollBox box({0, 1, 1});
  constexpr std::uint32_t kBlock = 2048;
  for (Rank r = 0; r < 3; ++r) {
    const std::uint64_t marker = 0x6A77E2 + r;
    ASSERT_TRUE(ok(box.comm->stage(r, 0, test::bytes_of(marker))));
  }
  ASSERT_TRUE(ok(gather(*box.comm, /*root=*/0, 0, kBlock)));
  for (Rank r = 1; r < 3; ++r) {
    std::uint64_t got = 0;
    ASSERT_TRUE(ok(box.comm->fetch(
        0, static_cast<std::uint64_t>(r) * kBlock,
        std::as_writable_bytes(std::span{&got, 1}))));
    EXPECT_EQ(got, 0x6A77E2u + r) << "block " << r;
  }
}

TEST(Collectives, BinomialBroadcastSendsNMinusOneMessages) {
  CollBox box({0, 1, 2, 3});
  const CommStats& st = box.comm->stats();
  const std::uint64_t before = st.eager_sends + st.rendezvous_sends;
  ASSERT_TRUE(ok(broadcast(*box.comm, 0, 0, 256)));
  EXPECT_EQ(st.eager_sends + st.rendezvous_sends - before, 3u);
}

TEST(Collectives, LargeBroadcastUsesRendezvousPath) {
  CollBox box({0, 1, 2});
  std::vector<std::byte> payload(100'000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i * 7);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  ASSERT_TRUE(ok(broadcast(*box.comm, 0, 0, 100'000)));
  EXPECT_GT(box.comm->stats().rendezvous_sends, 0u);
  for (Rank r = 1; r < 3; ++r) {
    std::vector<std::byte> out(payload.size());
    ASSERT_TRUE(ok(box.comm->fetch(r, 0, out)));
    EXPECT_EQ(out, payload) << "rank " << r;
  }
}

TEST(Collectives, BarrierCompletesOnMixedTopology) {
  CollBox box({0, 0, 1});
  const Nanos before = box.cluster.clock().now();
  ASSERT_TRUE(ok(barrier(*box.comm)));
  EXPECT_GT(box.cluster.clock().now(), before);
}

TEST(Collectives, InternalTagsDontDisturbUserTraffic) {
  CollBox box({0, 1});
  // A user message parked unexpected must survive a barrier + broadcast.
  const std::uint64_t v = 0x11EE;
  ASSERT_TRUE(ok(box.comm->stage(0, 256, test::bytes_of(v))));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, 33, 256, 8)));
  ASSERT_TRUE(ok(barrier(*box.comm, /*scratch=*/1024)));
  ASSERT_TRUE(ok(broadcast(*box.comm, 0, 2048, 64)));
  MpStatus st;
  ASSERT_TRUE(ok(box.comm->recv(1, 0, 33, 512, 64, &st)));
  std::uint64_t got = 0;
  ASSERT_TRUE(ok(box.comm->fetch(
      1, 512, std::as_writable_bytes(std::span{&got, 1}))));
  EXPECT_EQ(got, 0x11EEu);
  // And an ANY_TAG receive posted during user traffic must not have been
  // stolen by collective-internal messages (they use negative tags which
  // only internal receives can match).
}

TEST(Collectives, RepeatedCollectivesAreStable) {
  CollBox box({0, 1, 0, 1});
  for (int round = 0; round < 5; ++round) {
    for (Rank r = 0; r < 4; ++r) {
      const std::uint64_t v = round * 100 + r;
      ASSERT_TRUE(ok(box.comm->stage(r, 0, test::bytes_of(v))));
    }
    ASSERT_TRUE(ok(allreduce_sum(*box.comm, 0, 1, 4096)));
    std::uint64_t got = 0;
    ASSERT_TRUE(ok(box.comm->fetch(
        3, 0, std::as_writable_bytes(std::span{&got, 1}))));
    EXPECT_EQ(got, static_cast<std::uint64_t>(4 * round * 100 + 0 + 1 + 2 + 3));
    ASSERT_TRUE(ok(barrier(*box.comm, 8192)));
  }
}


// --- Mesh: an all-pairs mesh of ranks, one per node unless stated --------------
// The same behaviours the former msg-layer mesh was held to, now checked
// against mp/collectives over mp::Comm.

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

std::vector<int> one_rank_per_node(int ranks) {
  std::vector<int> layout;
  for (int i = 0; i < ranks; ++i) layout.push_back(i);
  return layout;
}

std::uint64_t messages_sent(const Comm& comm) {
  return comm.stats().eager_sends + comm.stats().rendezvous_sends;
}

/// Stages marker (i, j) as block j of every rank i, runs alltoall, and
/// expects block i of rank j to hold marker (i, j).
void expect_alltoall_transposes(const std::vector<int>& layout,
                                std::uint32_t block) {
  CollBox box(layout);
  const auto n = static_cast<Rank>(layout.size());
  for (Rank i = 0; i < n; ++i) {
    for (Rank j = 0; j < n; ++j) {
      const std::uint64_t marker = 0xB0000000ULL + i * 100 + j;
      ASSERT_TRUE(ok(box.comm->stage(i, std::uint64_t{j} * block,
                                     test::bytes_of(marker))));
    }
  }
  ASSERT_TRUE(ok(alltoall(*box.comm, 0, block, /*scratch=*/64 * 1024)));
  for (Rank j = 0; j < n; ++j) {
    for (Rank i = 0; i < n; ++i) {
      std::uint64_t got = 0;
      ASSERT_TRUE(ok(box.comm->fetch(
          j, std::uint64_t{i} * block,
          std::as_writable_bytes(std::span{&got, 1}))));
      EXPECT_EQ(got, 0xB0000000ULL + i * 100 + j)
          << n << " ranks: rank " << j << " block " << i;
    }
  }
}

TEST(Mesh, PointToPointMovesRankData) {
  CollBox box(one_rank_per_node(3));
  const auto payload = pattern(10'000, 1);  // > eager threshold
  ASSERT_TRUE(ok(box.comm->stage(0, 64, payload)));
  const auto len = static_cast<std::uint32_t>(payload.size());
  const ReqId r = box.comm->irecv(2, 0, 7, 64, len);
  const ReqId s = box.comm->isend(0, 2, 7, 64, len);
  ASSERT_TRUE(box.comm->wait(r));
  ASSERT_TRUE(box.comm->wait(s));
  std::vector<std::byte> out(payload.size());
  ASSERT_TRUE(ok(box.comm->fetch(2, 64, out)));
  EXPECT_EQ(payload, out);
  EXPECT_EQ(messages_sent(*box.comm), 1u);
}

TEST(Mesh, BroadcastReachesEveryRank) {
  CollBox box(one_rank_per_node(4));
  const auto payload = pattern(20'000, 2);
  ASSERT_TRUE(ok(box.comm->stage(1, 0, payload)));
  ASSERT_TRUE(ok(broadcast(*box.comm, /*root=*/1, 0,
                           static_cast<std::uint32_t>(payload.size()))));
  for (Rank r = 0; r < 4; ++r) {
    std::vector<std::byte> out(payload.size());
    ASSERT_TRUE(ok(box.comm->fetch(r, 0, out)));
    EXPECT_EQ(payload, out) << "rank " << r;
  }
}

TEST(Mesh, BroadcastFromEveryRootWorks) {
  CollBox box(one_rank_per_node(3));
  for (Rank root = 0; root < 3; ++root) {
    const auto payload = pattern(512, 100 + root);
    ASSERT_TRUE(ok(box.comm->stage(root, 0, payload)));
    ASSERT_TRUE(ok(broadcast(*box.comm, root, 0, 512)));
    for (Rank r = 0; r < 3; ++r) {
      std::vector<std::byte> out(512);
      ASSERT_TRUE(ok(box.comm->fetch(r, 0, out)));
      EXPECT_EQ(payload, out) << "root " << root << " rank " << r;
    }
  }
}

TEST(Mesh, AllreduceSumsAcrossRanks) {
  CollBox box(one_rank_per_node(4));
  constexpr std::uint32_t kCount = 16;
  std::array<std::uint64_t, kCount> expect{};
  for (Rank r = 0; r < 4; ++r) {
    std::array<std::uint64_t, kCount> vals;
    for (std::uint32_t i = 0; i < kCount; ++i) {
      vals[i] = (r + 1) * 1000 + i;
      expect[i] += vals[i];
    }
    ASSERT_TRUE(ok(box.comm->stage(r, 0, std::as_bytes(std::span{vals}))));
  }
  ASSERT_TRUE(ok(allreduce_sum(*box.comm, 0, kCount, 4096)));
  for (Rank r = 0; r < 4; ++r) {
    std::array<std::uint64_t, kCount> got{};
    ASSERT_TRUE(
        ok(box.comm->fetch(r, 0, std::as_writable_bytes(std::span{got}))));
    EXPECT_EQ(got, expect) << "rank " << r;
  }
}

TEST(Mesh, AllreduceWithNonPowerOfTwoRanks) {
  CollBox box(one_rank_per_node(3));
  std::uint64_t expect = 0;
  for (Rank r = 0; r < 3; ++r) {
    const std::uint64_t v = 7 + r * 11;
    expect += v;
    ASSERT_TRUE(ok(box.comm->stage(r, 0, test::bytes_of(v))));
  }
  ASSERT_TRUE(ok(allreduce_sum(*box.comm, 0, 1, 4096)));
  for (Rank r = 0; r < 3; ++r) {
    std::uint64_t got = 0;
    ASSERT_TRUE(ok(box.comm->fetch(
        r, 0, std::as_writable_bytes(std::span{&got, 1}))));
    EXPECT_EQ(got, expect) << "rank " << r;
  }
}

TEST(Mesh, AlltoallTransposesBlocks) {
  // Three ranks on a mixed shm/fabric layout, rendezvous-sized blocks.
  expect_alltoall_transposes({0, 0, 1}, 8192);
}

TEST(Mesh, AlltoallWithTwoRanks) {
  // Two ranks apart, eager-sized blocks.
  expect_alltoall_transposes(one_rank_per_node(2), 4096);
}

TEST(Mesh, BarrierCompletesAndChargesTime) {
  CollBox box(one_rank_per_node(4));
  const Nanos before = box.cluster.clock().now();
  ASSERT_TRUE(ok(barrier(*box.comm)));
  EXPECT_GT(box.cluster.clock().now(), before);
  EXPECT_EQ(box.comm->rank_kernel(0).metrics().counter("mp.coll.barrier")
                .value(),
            1u);
}

TEST(Mesh, TwoRankMeshIsMinimal) {
  CollBox box(one_rank_per_node(2));
  const auto payload = pattern(100, 9);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  ASSERT_TRUE(ok(broadcast(*box.comm, 0, 0, 100)));
  std::vector<std::byte> out(100);
  ASSERT_TRUE(ok(box.comm->fetch(1, 0, out)));
  EXPECT_EQ(payload, out);
  EXPECT_EQ(messages_sent(*box.comm), 1u);
}

}  // namespace
}  // namespace vialock::mp
