// kv_service_test - functional contract of the zero-copy KV service tier:
// inline vs rendezvous data paths, pipelined batching, governed admission
// shedding, the teardown-accounting regression (an abrupt mid-pipeline
// disconnect strands neither pinned frames nor governor charge), stale
// completions skipped by both sides, and fill_value against its bytewise
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "svc_util.h"

namespace vialock::svc {
namespace {

/// fill_value's byte-at-a-time definition, kept as the reference the
/// word-at-a-time version must reproduce byte for byte.
void fill_value_bytewise(std::span<std::byte> out, std::uint64_t key,
                         std::uint64_t seed) {
  std::uint64_t x = seed ^ (key * 0x9E3779B97F4A7C15ULL);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i % 8 == 0) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      x = z ^ (z >> 31);
    }
    out[i] = static_cast<std::byte>((x >> ((i % 8) * 8)) & 0xFF);
  }
}

TEST(KvFillValue, MatchesTheBytewiseReference) {
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {0, 0}, {7, KvRig::kValueSeed}, {~0ULL, 0x0123456789ABCDEFULL}};
  for (const auto& [key, seed] : cases) {
    for (const std::size_t len :
         {0u, 1u, 7u, 8u, 9u, 255u, 256u, 4095u, 4096u}) {
      std::vector<std::byte> want(len);
      fill_value_bytewise(want, key, seed);
      // Pre-filled, so a byte fill_value skips shows as a mismatch.
      std::vector<std::byte> got(len, std::byte{0xA5});
      KvClient::fill_value(got, key, seed);
      EXPECT_EQ(got, want) << "key " << key << " seed " << seed << " len "
                           << len;
    }
  }
}

/// The receive CQ the KvClient or KvServer on `nic` routes every VI to.
via::CqId recv_cq_of(via::Nic& nic) {
  for (via::ViId vi = 0; nic.vi_exists(vi); ++vi)
    if (nic.vi(vi).recv_cq != via::kInvalidCq) return nic.vi(vi).recv_cq;
  ADD_FAILURE() << "no VI with a receive CQ";
  return via::kInvalidCq;
}

/// Land one clean receive completion on `node`'s receive CQ from a VI no
/// connection ever owned. The VI is new, so its id lies past every id in
/// the owner's connection table.
void land_foreign_completion(via::Cluster& cluster, via::NodeId node,
                             via::NodeId peer) {
  via::Nic& nic = cluster.node(node).nic();
  const via::ViId vi = nic.create_vi(/*tag=*/1);
  const via::ViId peer_vi = cluster.node(peer).nic().create_vi(/*tag=*/1);
  ASSERT_TRUE(ok(nic.attach_recv_cq(vi, recv_cq_of(nic))));
  ASSERT_TRUE(ok(cluster.fabric().connect(node, vi, peer, peer_vi)));
  via::Descriptor recv;
  ASSERT_TRUE(ok(nic.post_recv(vi, std::span(&recv, 1))));
  via::Nic::Packet pkt;
  pkt.src_node = peer;
  pkt.src_vi = peer_vi;
  pkt.dst_vi = vi;
  pkt.op = via::DescOp::Send;
  ASSERT_EQ(nic.deliver(pkt), via::DescStatus::Done);
}

TEST_F(KvBox, InlineRoundTripServesPutAndGet) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));

  const KvResult put = put_now(conn, 7, 64);
  EXPECT_EQ(put.op, KvOp::Put);
  EXPECT_EQ(put.status, KvStatus::Ok);
  EXPECT_FALSE(put.rendezvous);

  const KvResult got = get_now(conn, 7);
  EXPECT_EQ(got.status, KvStatus::Ok);
  EXPECT_TRUE(got.data_ok);
  EXPECT_EQ(got.value_len, 64u);
  EXPECT_FALSE(got.rendezvous);

  const KvResult miss = get_now(conn, 999);
  EXPECT_EQ(miss.status, KvStatus::NotFound);
  EXPECT_EQ(miss.value_len, 0u);

  const KvServerStats& ss = server->stats();
  EXPECT_EQ(ss.requests, 3u);
  EXPECT_EQ(ss.puts, 1u);
  EXPECT_EQ(ss.gets, 2u);
  EXPECT_EQ(ss.not_found, 1u);
  // Small values ride the eager slots: copied, never RDMA'd.
  EXPECT_EQ(ss.inline_bytes, 128u);
  EXPECT_GT(ss.eager_copies, 0u);
  EXPECT_EQ(ss.rendezvous_ops, 0u);
  EXPECT_EQ(server->tenant_keys(t), 1u);
  EXPECT_GT(client->stats().inline_bytes, 0u);
}

TEST_F(KvBox, RendezvousMovesLargeValuesWithZeroEagerCopies) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));

  // 4 KB value, well past the 256-byte inline threshold.
  const KvResult put = put_now(conn, 42, 4096);
  EXPECT_EQ(put.status, KvStatus::Ok);
  EXPECT_TRUE(put.rendezvous);

  const KvResult got = get_now(conn, 42);
  EXPECT_EQ(got.status, KvStatus::Ok);
  EXPECT_TRUE(got.rendezvous);
  EXPECT_TRUE(got.data_ok);
  EXPECT_EQ(got.value_len, 4096u);

  // The zero-copy evidence: every value byte moved by RDMA, none through
  // the eager slots, no slot<->arena copies at all.
  const KvServerStats& ss = server->stats();
  EXPECT_EQ(ss.rendezvous_ops, 2u);
  EXPECT_EQ(ss.rendezvous_bytes, 8192u);
  EXPECT_EQ(ss.eager_copies, 0u);
  EXPECT_EQ(ss.inline_bytes, 0u);
  // The client counts both directions: the PUT it staged into its window
  // and the GET the server RDMA-wrote back into it.
  EXPECT_EQ(client->stats().rendezvous_bytes, 8192u);

  // Full teardown audits clean: zero pinned frames, zero governor charge.
  ASSERT_TRUE(ok(client->close(conn)));
  server->shutdown();
  EXPECT_EQ(gov->total_charged(), 0u);
  EXPECT_EQ(cluster->node(sn).kernel().pinned_frames(), 0u);
}

TEST_F(KvBox, PipelinedBurstUsesOneDoorbellAndBatchedReplies) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));

  // Fill the whole window (4) without flushing; the window then pushes back.
  for (std::uint64_t k = 1; k <= 4; ++k) stage_put(conn, k, 32);
  EXPECT_FALSE(client->can_issue(conn));
  std::uint64_t req_id = 0;
  EXPECT_EQ(client->get(conn, 1, req_id), KStatus::Busy);

  const std::vector<KvResult> results = pump(conn);
  ASSERT_EQ(results.size(), 4u);
  for (const KvResult& r : results) EXPECT_EQ(r.status, KvStatus::Ok);

  // One flush = one doorbell for the burst; the server drained the burst in
  // batches and answered through batched per-VI reply doorbells.
  EXPECT_EQ(client->stats().doorbell_flushes, 1u);
  const KvServerStats& ss = server->stats();
  EXPECT_GE(ss.batched_completions, 4u);
  EXPECT_GE(ss.batched_replies, 4u);
  EXPECT_GE(ss.batches, 1u);
  EXPECT_EQ(client->inflight(conn), 0u);
}

TEST_F(KvBox, BestEffortConnectionShedUnderQuotaPressure) {
  // Slot rings need 2 pages; a 1-page BestEffort quota has no headroom, so
  // the admission probe sheds the connection before any registration work.
  const std::uint32_t starved =
      server->add_tenant({"starved", 1, pinmgr::QosTier::BestEffort});
  const std::uint32_t pinned_before = cluster->node(sn).kernel().pinned_frames();
  const std::uint32_t charged_before = gov->total_charged();

  std::uint32_t conn = 0;
  EXPECT_EQ(client->connect(*server, starved, conn), KStatus::Again);
  EXPECT_EQ(server->stats().conns_shed, 1u);
  EXPECT_EQ(server->stats().conns_accepted, 0u);
  EXPECT_EQ(server->open_conns(), 0u);
  // The shed left nothing behind on either side.
  EXPECT_EQ(client->open_conns(), 0u);
  EXPECT_EQ(cluster->node(sn).kernel().pinned_frames(), pinned_before);
  EXPECT_EQ(gov->total_charged(), charged_before);

  // A Guaranteed tenant with real quota still gets in.
  const std::uint32_t good =
      server->add_tenant({"good", 256, pinmgr::QosTier::Guaranteed});
  ASSERT_TRUE(ok(client->connect(*server, good, conn)));
  EXPECT_EQ(server->stats().conns_accepted, 1u);
}

TEST_F(KvBox, AbruptDisconnectReclaimsPinsAndGovernorCharge) {
  // The satellite regression: a client that vanishes mid-pipeline must not
  // strand pinned frames or governor charge on the server.
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  const std::uint32_t pinned_baseline =
      cluster->node(sn).kernel().pinned_frames();
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  EXPECT_EQ(put_now(conn, 5, 64).status, KvStatus::Ok);
  EXPECT_GT(gov->total_charged(), 0u);  // the slot rings are charged

  // Fill the pipeline, ring the doorbell... and vanish before the replies.
  for (int i = 0; i < 4; ++i) {
    std::uint64_t req_id = 0;
    ASSERT_TRUE(ok(client->get(conn, 5, req_id)));
  }
  (void)client->flush(conn);
  ASSERT_TRUE(ok(client->abandon(conn)));
  EXPECT_EQ(client->stats().requests_lost, 4u);

  // The server discovers the death when its replies bounce, and reclaims.
  while (server->service() != 0) {
  }
  server->drain();
  EXPECT_EQ(server->stats().conns_abandoned, 1u);
  EXPECT_EQ(server->open_conns(), 0u);
  EXPECT_EQ(gov->total_charged(), 0u);
  EXPECT_EQ(cluster->node(sn).kernel().pinned_frames(), pinned_baseline);

  // The abandonment is visible as a metric for the observability layer.
  const obs::Snapshot snap = cluster->node(sn).kernel().metrics().snapshot();
  const auto it = std::find_if(
      snap.begin(), snap.end(),
      [](const obs::Metric& m) { return m.name == "svc.conn_abandoned"; });
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->value, 1u);

  // The tenant (and its data) survive the dead connection: reconnect works.
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  const KvResult got = get_now(conn, 5);
  EXPECT_EQ(got.status, KvStatus::Ok);
  EXPECT_TRUE(got.data_ok);
}

TEST_F(KvBox, ConnectionChurnRecyclesEverything) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  const std::uint32_t pinned_baseline =
      cluster->node(sn).kernel().pinned_frames();
  for (std::uint64_t round = 0; round < 6; ++round) {
    std::uint32_t conn = 0;
    ASSERT_TRUE(ok(client->connect(*server, t, conn)));
    EXPECT_EQ(put_now(conn, round, 64).status, KvStatus::Ok);
    const std::uint32_t sc = client->server_conn(conn);
    ASSERT_TRUE(ok(client->close(conn)));
    ASSERT_TRUE(ok(server->close(sc)));
    EXPECT_EQ(gov->total_charged(), 0u);
    EXPECT_EQ(cluster->node(sn).kernel().pinned_frames(), pinned_baseline);
  }
  EXPECT_EQ(server->stats().conns_accepted, 6u);
  EXPECT_EQ(server->stats().conns_closed, 6u);
  EXPECT_EQ(server->tenant_keys(t), 6u);
}

TEST(KvTeardown, DestroyedClientAndServerLeaveBothNodesQuiescent) {
  // One connection each left open, closed on both sides, and abandoned by
  // the client mid-pipeline; then both objects go, and with them the
  // processes they created and every frame those mapped.
  KvRig rig;
  rig.build();
  const std::uint32_t t = rig.server->add_tenant(
      {"t0", 256, pinmgr::QosTier::Guaranteed});
  std::uint32_t open = 0, closed = 0, abandoned = 0;
  ASSERT_TRUE(ok(rig.client->connect(*rig.server, t, open)));
  ASSERT_TRUE(ok(rig.client->connect(*rig.server, t, closed)));
  ASSERT_TRUE(ok(rig.client->connect(*rig.server, t, abandoned)));
  for (const std::uint32_t conn : {open, closed, abandoned})
    EXPECT_EQ(rig.put_now(conn, conn, 4096).status, KvStatus::Ok);
  const std::uint32_t sc = rig.client->server_conn(closed);
  ASSERT_TRUE(ok(rig.client->close(closed)));
  ASSERT_TRUE(ok(rig.server->close(sc)));
  std::uint64_t req_id = 0;
  ASSERT_TRUE(ok(rig.client->get(abandoned, abandoned, req_id)));
  (void)rig.client->flush(abandoned);
  ASSERT_TRUE(ok(rig.client->abandon(abandoned)));
  std::vector<simkern::Pid> server_pids;
  for (const pinmgr::TenantInfo& ti : rig.gov->tenants())
    server_pids.push_back(ti.pid);
  ASSERT_EQ(server_pids.size(), 1u);
  const simkern::Pid client_pid = rig.client->pid();
  rig.client.reset();
  rig.server.reset();
  simkern::Kernel& skern = rig.cluster->node(rig.sn).kernel();
  simkern::Kernel& ckern = rig.cluster->node(rig.cn).kernel();
  for (const simkern::Pid pid : server_pids)
    EXPECT_FALSE(skern.task_exists(pid)) << "server tenant pid " << pid;
  EXPECT_FALSE(ckern.task_exists(client_pid));
  EXPECT_EQ(skern.free_frames(), rig.server_free_frames);
  EXPECT_EQ(ckern.free_frames(), rig.client_free_frames);
  test::expect_quiescent(rig.cluster->node(rig.sn));
  test::expect_quiescent(rig.cluster->node(rig.cn));
}

TEST_F(KvBox, ClientSkipsCompletionsOfUnknownVis) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  ASSERT_EQ(put_now(conn, 3, 64).status, KvStatus::Ok);

  // A reply that lands after its connection was torn down.
  std::uint64_t req_id = 0;
  ASSERT_TRUE(ok(client->get(conn, 3, req_id)));
  (void)client->flush(conn);
  while (server->service() != 0) {
  }
  const std::uint32_t sc = client->server_conn(conn);
  ASSERT_TRUE(ok(client->close(conn)));
  ASSERT_TRUE(ok(server->close(sc)));
  std::vector<KvResult> out;
  EXPECT_EQ(client->harvest(out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(client->stats().stale_completions, 1u);

  // A completion from a VI past the end of the connection table.
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  ASSERT_NO_FATAL_FAILURE(land_foreign_completion(*cluster, cn, sn));
  EXPECT_EQ(client->harvest(out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(client->stats().stale_completions, 2u);

  // Neither touched the live connection.
  EXPECT_EQ(client->inflight(conn), 0u);
  const KvResult got = get_now(conn, 3);
  EXPECT_EQ(got.status, KvStatus::Ok);
  EXPECT_TRUE(got.data_ok);
  EXPECT_EQ(client->stats().stale_completions, 2u);
}

TEST_F(KvBox, ServerDropsCompletionsOfUnknownVis) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));

  // A request that lands after its connection was torn down.
  stage_put(conn, 9, 64);
  (void)client->flush(conn);
  server->abandon(client->server_conn(conn));
  ASSERT_TRUE(ok(client->abandon(conn)));
  EXPECT_EQ(server->service(), 0u);
  EXPECT_EQ(server->stats().requests_dropped, 1u);

  // A completion from a VI past the end of the connection table.
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  ASSERT_NO_FATAL_FAILURE(land_foreign_completion(*cluster, sn, cn));
  EXPECT_EQ(server->service(), 0u);
  EXPECT_EQ(server->stats().requests_dropped, 2u);

  // Neither touched the live connection.
  EXPECT_EQ(server->open_conns(), 1u);
  EXPECT_EQ(put_now(conn, 9, 64).status, KvStatus::Ok);
  EXPECT_EQ(server->stats().requests, 1u);
  EXPECT_EQ(server->stats().requests_dropped, 2u);
}

}  // namespace
}  // namespace vialock::svc
