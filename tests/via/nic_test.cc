// nic_test.cc - NIC work-queue processing: send/receive matching, RDMA,
// protection enforcement, connection-break semantics.
#include "via/nic.h"

#include <gtest/gtest.h>

#include "via/remote_window.h"
#include "via_util.h"

namespace vialock::via {
namespace {

using simkern::kPageSize;
using test::peek64;
using test::poke64;
using test::TwoNodeFixture;

class NicTest : public TwoNodeFixture {};

TEST_F(NicTest, SendRecvMovesDataBetweenProcesses) {
  ASSERT_TRUE(ok(poke64(kern0(), p0, buf0, 0xFEEDFACE12345678ULL)));
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64, /*cookie=*/9)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64, /*cookie=*/5)));

  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::Done);
  EXPECT_EQ(sc->cookie, 5u);
  EXPECT_EQ(sc->transferred, 64u);

  const auto rc = v1->recv_done(vi1);
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->status, DescStatus::Done);
  EXPECT_EQ(rc->cookie, 9u);
  EXPECT_EQ(rc->transferred, 64u);

  EXPECT_EQ(peek64(kern1(), p1, buf1), 0xFEEDFACE12345678ULL);

  // A receive larger than its message reports the message's length.
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1 + 256, 256)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 40)));
  ASSERT_TRUE(v0->send_done(vi0)->done_ok());
  const auto short_rc = v1->recv_done(vi1);
  ASSERT_TRUE(short_rc.has_value());
  EXPECT_EQ(short_rc->status, DescStatus::Done);
  EXPECT_EQ(short_rc->transferred, 40u);
}

TEST_F(NicTest, SendWithoutRecvDescriptorBreaksReliableConnection) {
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64)));
  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrNoRecvDesc);
  EXPECT_EQ(cluster->node(n1).nic().vi(vi1).state, ViState::Error);
  EXPECT_EQ(cluster->node(n1).nic().stats().no_recv_desc, 1u);
  // Subsequent sends fail with disconnect.
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64)));
  const auto sc2 = v0->send_done(vi0);
  ASSERT_TRUE(sc2.has_value());
  EXPECT_EQ(sc2->status, DescStatus::ErrDisconnected);
}

TEST_F(NicTest, OversizedMessageIsLengthError) {
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 32)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 64)));
  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrLength);
  const auto rc = v1->recv_done(vi1);
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->status, DescStatus::ErrLength);
}

TEST_F(NicTest, SendOutsideRegisteredRangeIsProtectionError) {
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
  // Address past the registered region.
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0 + kBufPages * kPageSize, 64)));
  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrProtection);
  EXPECT_GE(cluster->node(n0).nic().stats().protection_errors, 1u);
}

TEST_F(NicTest, ForeignHandleIsRejectedByTagCheck) {
  // A second process on node 0 registers its own buffer; using process 0's
  // VI with that handle must fail the protection-tag comparison.
  const auto pid2 = kern0().create_task("intruder");
  via::Vipl v2(cluster->node(n0).agent(), pid2);
  ASSERT_TRUE(ok(v2.open()));
  const auto buf2 = test::must_mmap(kern0(), pid2, 4);
  MemHandle mh2;
  ASSERT_TRUE(ok(v2.register_mem(buf2, 4 * kPageSize, mh2)));

  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh2, buf2, 64)));  // wrong tag for vi0
  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrProtection);
}

TEST_F(NicTest, RdmaWritePlacesDataWithoutRecvDescriptor) {
  ASSERT_TRUE(ok(poke64(kern0(), p0, buf0 + 8, 0xBEEF)));
  ASSERT_TRUE(ok(v0->rdma_write(vi0, mh0, buf0 + 8, 8, mh1, buf1 + 256)));
  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::Done);
  EXPECT_EQ(peek64(kern1(), p1, buf1 + 256), 0xBEEFu);
  EXPECT_FALSE(v1->recv_done(vi1).has_value());  // one-sided
}

TEST_F(NicTest, RdmaWriteWithImmediateConsumesRecvDescriptor) {
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64, /*cookie=*/3)));
  ASSERT_TRUE(ok(v0->rdma_write(vi0, mh0, buf0, 16, mh1, buf1 + 512,
                                /*cookie=*/0, /*immediate=*/4242)));
  ASSERT_TRUE(v0->send_done(vi0).has_value());
  const auto rc = v1->recv_done(vi1);
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->status, DescStatus::Done);
  EXPECT_EQ(rc->cookie, 3u);
  EXPECT_TRUE(rc->has_immediate);
  EXPECT_EQ(rc->immediate, 4242u);
}

TEST_F(NicTest, RdmaReadFetchesRemoteData) {
  ASSERT_TRUE(ok(poke64(kern1(), p1, buf1 + 1024, 0xCAFED00DULL)));
  ASSERT_TRUE(ok(v0->rdma_read(vi0, mh0, buf0 + 2048, 8, mh1, buf1 + 1024)));
  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::Done);
  EXPECT_EQ(peek64(kern0(), p0, buf0 + 2048), 0xCAFED00DULL);

  // A read whose local landing segment lies outside its region fetches
  // nothing into memory and completes with a protection error.
  ASSERT_TRUE(ok(v0->rdma_read(vi0, mh0, buf0 + kBufPages * kPageSize, 8, mh1,
                               buf1 + 1024)));
  const auto bad = v0->send_done(vi0);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, DescStatus::ErrProtection);
}

TEST_F(NicTest, RdmaToForeignRemoteHandleIsProtectionError) {
  // Remote handle belonging to another process on node 1.
  const auto pid2 = kern1().create_task("other");
  via::Vipl v2(cluster->node(n1).agent(), pid2);
  ASSERT_TRUE(ok(v2.open()));
  const auto buf2 = test::must_mmap(kern1(), pid2, 4);
  MemHandle mh2;
  ASSERT_TRUE(ok(v2.register_mem(buf2, 4 * kPageSize, mh2)));

  ASSERT_TRUE(ok(v0->rdma_write(vi0, mh0, buf0, 16, mh2, buf2)));
  const auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrProtection)
      << "segment 4 of figure 3: A must not reach memory C did not export";
}

TEST_F(NicTest, StaleHandleAfterDeregisterIsProtectionError) {
  // A descriptor carries only a handle, the region's TPT base; the NIC
  // resolves it from its own region table, which deregistration clears.
  // The caller's stale MemHandle copy still states a live-looking region.
  Nic& nic0 = cluster->node(n0).nic();
  Nic& nic1 = cluster->node(n1).nic();
  const auto repair = [&] {
    ASSERT_TRUE(ok(cluster->fabric().repair(n0, vi0, n1, vi1)));
  };

  // 1. A send whose local segment names a deregistered handle.
  const auto src = test::must_mmap(kern0(), p0, 4);
  MemHandle gone;
  ASSERT_TRUE(ok(v0->register_mem(src, 4 * kPageSize, gone)));
  EXPECT_EQ(nic0.region(gone.tpt_base).tag, gone.tag);
  ASSERT_TRUE(ok(v0->deregister_mem(gone)));
  EXPECT_EQ(nic0.region(gone.tpt_base).tag, kInvalidTag);
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 64)));
  ASSERT_TRUE(ok(v0->post_send(vi0, gone, src, 64)));
  auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrProtection);
  EXPECT_FALSE(v1->recv_done(vi1).has_value()) << "nothing was delivered";
  repair();

  // 2. An RDMA write to a deregistered remote handle.
  const auto dst = test::must_mmap(kern1(), p1, 4);
  MemHandle remote_gone;
  ASSERT_TRUE(ok(v1->register_mem(dst, 4 * kPageSize, remote_gone)));
  ASSERT_TRUE(ok(v1->deregister_mem(remote_gone)));
  EXPECT_EQ(nic1.region(remote_gone.tpt_base).tag, kInvalidTag);
  ASSERT_TRUE(ok(v0->rdma_write(vi0, mh0, buf0, 16, remote_gone, dst)));
  sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrProtection);
  repair();

  // 3. The stale handle's TPT base is reused by another process's
  // registration: the handle now resolves to that region, under that
  // process's tag, and vi0's tag check rejects it.
  ASSERT_TRUE(ok(v0->register_mem(src, 4 * kPageSize, gone)));
  ASSERT_TRUE(ok(v0->deregister_mem(gone)));
  const auto pid2 = kern0().create_task("successor");
  via::Vipl v2(cluster->node(n0).agent(), pid2);
  ASSERT_TRUE(ok(v2.open()));
  const auto buf2 = test::must_mmap(kern0(), pid2, 4);
  MemHandle successor;
  ASSERT_TRUE(ok(v2.register_mem(buf2, 4 * kPageSize, successor)));
  ASSERT_EQ(successor.tpt_base, gone.tpt_base) << "first-fit reuses the base";
  EXPECT_EQ(nic0.region(gone.tpt_base).tag, successor.tag);
  ASSERT_NE(successor.tag, gone.tag);
  ASSERT_TRUE(ok(v0->post_send(vi0, gone, src, 64)));  // case 1's recv waits
  sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrProtection);
  EXPECT_GE(nic0.stats().protection_errors, 2u);
}

TEST_F(NicTest, WidenedHandleCopyCannotReachPastRegisteredRange) {
  // The region ends 256 bytes short of its last page, so that page's TPT
  // entry is valid past the registered range. A caller's copy of the handle
  // with `length` widened to the page end must still stop at the range the
  // kernel agent recorded: every access resolves the region from the NIC's
  // region table, not from the copy.
  const auto mem = test::must_mmap(kern1(), p1, 4);
  const std::uint64_t registered = 4 * kPageSize - 256;
  MemHandle mh;
  ASSERT_TRUE(ok(v1->register_mem(mem, registered, mh)));
  MemHandle widened = mh;
  widened.length = 4 * kPageSize;
  const std::uint64_t v = 0x0DDBA11;

  Nic& nic1 = cluster->node(n1).nic();
  EXPECT_TRUE(ok(nic1.dma_write_local(widened, mem + registered - 8,
                                      test::bytes_of(v))));
  EXPECT_EQ(nic1.dma_write_local(widened, mem + registered, test::bytes_of(v)),
            KStatus::Fault);
  std::uint64_t seen = 0;
  EXPECT_EQ(nic1.dma_read_local(widened, mem + registered,
                                std::as_writable_bytes(std::span{&seen, 1})),
            KStatus::Fault);

  auto window = RemoteWindow::import(cluster->fabric(), n0, n1, widened);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->size(), registered);
  EXPECT_TRUE(ok(window->store(registered - 8, test::bytes_of(v))));
  EXPECT_FALSE(ok(window->store(registered, test::bytes_of(v))));
  EXPECT_EQ(peek64(kern1(), p1, mem + registered), 0u)
      << "nothing landed past the registered range";
}

TEST_F(NicTest, RdmaWriteDisabledAttributeIsEnforced) {
  // The RDMA enables bind only the RDMA op they name: an RDMA write or read
  // needs its own enable, while send/recv, local DMA and PIO ignore both.
  const auto extra = test::must_mmap(kern1(), p1, 4);
  MemHandle ro;
  ASSERT_TRUE(ok(v1->register_mem(extra, 4 * kPageSize, ro,
                                  KernelAgent::RegisterOptions::rdma_read_only())));
  const auto quiet = test::must_mmap(kern1(), p1, 4);
  MemHandle sr;
  ASSERT_TRUE(ok(v1->register_mem(quiet, 4 * kPageSize, sr,
                                  KernelAgent::RegisterOptions::send_recv_only())));
  // Each failed RDMA op breaks the reliable connection; repair it.
  const auto repair = [&] {
    ASSERT_TRUE(ok(cluster->fabric().repair(n0, vi0, n1, vi1)));
  };

  // An RDMA write into the rdma_read_only region bounces, even with the
  // right tag...
  ASSERT_TRUE(ok(v0->rdma_write(vi0, mh0, buf0, 16, ro, extra)));
  auto sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrProtection);
  repair();
  // ...but an RDMA read of the same region is allowed.
  ASSERT_TRUE(ok(poke64(kern1(), p1, extra + 8, 0x5EEDULL)));
  ASSERT_TRUE(ok(v0->rdma_read(vi0, mh0, buf0 + 64, 8, ro, extra + 8)));
  sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::Done);
  EXPECT_EQ(peek64(kern0(), p0, buf0 + 64), 0x5EEDULL);

  // An RDMA read of the send_recv_only region bounces.
  ASSERT_TRUE(ok(v0->rdma_read(vi0, mh0, buf0 + 64, 8, sr, quiet)));
  sc = v0->send_done(vi0);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->status, DescStatus::ErrProtection);
  repair();

  // A send from and a receive into send_recv_only regions succeed: local
  // DMA ignores the RDMA enables.
  const auto src = test::must_mmap(kern0(), p0, 1);
  MemHandle src_sr;
  ASSERT_TRUE(ok(v0->register_mem(src, kPageSize, src_sr,
                                  KernelAgent::RegisterOptions::send_recv_only())));
  ASSERT_TRUE(ok(poke64(kern0(), p0, src, 0xABCDULL)));
  ASSERT_TRUE(ok(v1->post_recv(vi1, sr, quiet, 64)));
  ASSERT_TRUE(ok(v0->post_send(vi0, src_sr, src, 64)));
  ASSERT_TRUE(v0->send_done(vi0)->done_ok());
  ASSERT_TRUE(v1->recv_done(vi1)->done_ok());
  EXPECT_EQ(peek64(kern1(), p1, quiet), 0xABCDULL);

  // So do the NIC's raw local DMA and a PIO window on the region.
  Nic& nic1 = cluster->node(n1).nic();
  const std::uint64_t poked = 0x10CA1;
  ASSERT_TRUE(ok(nic1.dma_write_local(sr, quiet + 256, test::bytes_of(poked))));
  std::uint64_t seen = 0;
  ASSERT_TRUE(ok(nic1.dma_read_local(
      sr, quiet + 256, std::as_writable_bytes(std::span{&seen, 1}))));
  EXPECT_EQ(seen, poked);
  auto window = RemoteWindow::import(cluster->fabric(), n0, n1, sr);
  ASSERT_TRUE(window.has_value());
  const std::uint64_t stored = 0x5C1;
  ASSERT_TRUE(ok(window->store(512, test::bytes_of(stored))));
  ASSERT_TRUE(ok(window->load(512, std::as_writable_bytes(std::span{&seen, 1}))));
  EXPECT_EQ(seen, stored);
  EXPECT_EQ(peek64(kern1(), p1, quiet + 512), stored);
}

TEST_F(NicTest, MultiPageTransferSpansFrames) {
  // 3 pages + unaligned start: gather/scatter must walk multiple TPT entries.
  std::vector<std::byte> pattern(3 * kPageSize);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::byte>((i * 31 + 7) & 0xFF);
  ASSERT_TRUE(ok(kern0().write_user(p0, buf0 + 128, pattern)));
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1 + 64,
                               static_cast<std::uint32_t>(pattern.size()))));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0 + 128,
                               static_cast<std::uint32_t>(pattern.size()))));
  ASSERT_TRUE(v0->send_done(vi0)->done_ok());
  ASSERT_TRUE(v1->recv_done(vi1)->done_ok());
  std::vector<std::byte> out(pattern.size());
  ASSERT_TRUE(ok(kern1().read_user(p1, buf1 + 64, out)));
  EXPECT_EQ(pattern, out);
}

TEST_F(NicTest, TransfersChargeVirtualTime) {
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 4096)));
  const Nanos before = cluster->clock().now();
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 4096)));
  const Nanos elapsed = cluster->clock().now() - before;
  // At minimum: doorbell + two DMA engine startups + the cut-through
  // streaming path.
  const auto& c = cluster->costs();
  EXPECT_GE(elapsed, c.doorbell + 2 * c.dma_startup + c.wire_latency +
                         4096 * c.dma_path_per_byte);
}

TEST_F(NicTest, StatsCountTraffic) {
  ASSERT_TRUE(ok(v1->post_recv(vi1, mh1, buf1, 128)));
  ASSERT_TRUE(ok(v0->post_send(vi0, mh0, buf0, 128)));
  (void)v0->send_done(vi0);
  (void)v1->recv_done(vi1);
  EXPECT_EQ(cluster->node(n0).nic().stats().sends_ok, 1u);
  EXPECT_EQ(cluster->node(n0).nic().stats().bytes_tx, 128u);
  EXPECT_EQ(cluster->node(n1).nic().stats().recvs_ok, 1u);
  EXPECT_EQ(cluster->node(n1).nic().stats().bytes_rx, 128u);
}

}  // namespace
}  // namespace vialock::via
