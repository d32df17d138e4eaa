// nic_alloc_test.cc - the NIC data path allocates nothing in steady state.
//
// This binary replaces the global operator new with one that counts its
// calls. On two connected nodes, after one warm-up round that lets every
// queue, staging buffer and reused vector reach its working size, each kind
// of transfer round - eager send/recv, RDMA write, RDMA read, a batched
// post_send_batch + poll_cq_batch harvest, and a 3-segment gather send into
// a 3-segment scatter receive - runs 1,000 times and must not allocate
// once. A per-descriptor or per-packet allocation anywhere in the
// Vipl -> Nic -> Fabric -> Nic path shows up as a count of 1,000 or more.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "via_util.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

// None of the three is inlined: GCC would then see a pointer from malloc
// reach operator delete, or one from operator new reach free, at a call
// site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vialock::test {
namespace {

using simkern::kPageSize;

constexpr int kRounds = 1000;
constexpr std::uint32_t kBurst = 8;

class NicAllocation : public TwoNodeFixture {
 protected:
  void SetUp() override {
    TwoNodeFixture::SetUp();
    // A second VI pair whose completions route to CQs, for the batch round.
    ASSERT_TRUE(ok(v0->create_vi(bvi0)));
    ASSERT_TRUE(ok(v1->create_vi(bvi1)));
    send_cq = v0->create_cq();
    recv_cq = v1->create_cq();
    ASSERT_TRUE(ok(v0->attach_send_cq(bvi0, send_cq)));
    ASSERT_TRUE(ok(v1->attach_recv_cq(bvi1, recv_cq)));
    ASSERT_TRUE(ok(cluster->fabric().connect(n0, bvi0, n1, bvi1)));
    for (std::uint32_t k = 0; k < kBurst; ++k) {
      sends.push_back({mh0, buf0 + k * 256, 256, k});
      recvs.push_back({mh1, buf1 + k * 256, 256, k});
    }
    harvest.reserve(kBurst);
    for (std::uint32_t k = 0; k < 3; ++k) {
      gather.emplace_back(mh0, buf0 + k * 2 * kPageSize, 64);
      scatter.emplace_back(mh1, buf1 + k * 2 * kPageSize + 128, 64);
    }
  }

  /// Run `round` once to warm up, then kRounds times; the allocations the
  /// measured rounds made.
  template <typename Round>
  std::size_t allocations_in(Round round) {
    round();
    const std::size_t before = g_allocations;
    for (int i = 0; i < kRounds; ++i) round();
    return g_allocations - before;
  }

  via::ViId bvi0 = via::kInvalidVi, bvi1 = via::kInvalidVi;
  via::CqId send_cq = via::kInvalidCq, recv_cq = via::kInvalidCq;
  std::vector<via::Vipl::SendPost> sends;
  std::vector<via::Vipl::RecvPost> recvs;
  std::vector<via::Nic::CqEntry> harvest;
  std::vector<via::DataSegment> gather, scatter;
};

TEST_F(NicAllocation, EagerSendRecvAllocatesNothing) {
  const std::size_t n = allocations_in([&] {
    ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
    ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64)));
    const auto sent = v0->send_done(vi0);
    const auto got = v1->recv_done(vi1);
    ASSERT_TRUE(sent && sent->done_ok());
    ASSERT_TRUE(got && got->done_ok());
  });
  EXPECT_EQ(n, 0u);
}

TEST_F(NicAllocation, RdmaWriteAllocatesNothing) {
  const std::size_t n = allocations_in([&] {
    ASSERT_TRUE(ok(v0->rdma_write(vi0, mh0, buf0, 2 * kPageSize, mh1, buf1)));
    const auto done = v0->send_done(vi0);
    ASSERT_TRUE(done && done->done_ok());
  });
  EXPECT_EQ(n, 0u);
}

TEST_F(NicAllocation, RdmaReadAllocatesNothing) {
  const std::size_t n = allocations_in([&] {
    ASSERT_TRUE(ok(v0->rdma_read(vi0, mh0, buf0, 2 * kPageSize, mh1, buf1)));
    const auto done = v0->send_done(vi0);
    ASSERT_TRUE(done && done->done_ok());
  });
  EXPECT_EQ(n, 0u);
}

TEST_F(NicAllocation, BatchPostAndHarvestAllocatesNothing) {
  const std::size_t n = allocations_in([&] {
    ASSERT_TRUE(ok(v1->post_recv_batch(bvi1, recvs)));
    ASSERT_TRUE(ok(v0->post_send_batch(bvi0, sends)));
    harvest.clear();
    ASSERT_EQ(v0->nic().poll_cq_batch(send_cq, kBurst, harvest), kBurst);
    ASSERT_EQ(v1->nic().poll_cq_batch(recv_cq, kBurst, harvest), kBurst);
    for (const via::Nic::CqEntry& e : harvest) ASSERT_TRUE(e.desc.done_ok());
  });
  EXPECT_EQ(n, 0u);
}

TEST_F(NicAllocation, ScatterGatherAllocatesNothing) {
  const std::size_t n = allocations_in([&] {
    ASSERT_TRUE(ok(v1->post_recv_sg(vi1, scatter)));
    ASSERT_TRUE(ok(v0->post_send_sg(vi0, gather)));
    const auto sent = v0->send_done(vi0);
    const auto got = v1->recv_done(vi1);
    ASSERT_TRUE(sent && sent->done_ok());
    ASSERT_TRUE(got && got->done_ok());
    ASSERT_EQ(got->transferred, 3 * 64u);
  });
  EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace vialock::test
