// svc_util.h - shared two-node KvServer/KvClient rig for the service tier
// tests: server on node 0 (governed), client on node 1. KvRig is a plain
// struct so fault tests can build several independent rigs in one test body
// (seed-determinism comparisons); KvBox wraps it as a gtest fixture.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../via/via_util.h"
#include "fault/fault.h"
#include "pinmgr/pin_governor.h"
#include "svc/kv_client.h"
#include "svc/kv_server.h"

namespace vialock::svc {

struct KvRig {
  static constexpr std::uint64_t kValueSeed = 0xDECAFBAD;

  void build(KvServerConfig scfg = {}, KvClientConfig ccfg = {},
             pinmgr::GovernorConfig gcfg = {}) {
    cluster = std::make_unique<via::Cluster>();
    sn = cluster->add_node(
        test::small_node(via::PolicyKind::Kiobuf, 2048, 1024));
    cn = cluster->add_node(
        test::small_node(via::PolicyKind::Kiobuf, 2048, 1024));
    gov = &cluster->node(sn).enable_governor(gcfg);
    server_free_frames = cluster->node(sn).kernel().free_frames();
    client_free_frames = cluster->node(cn).kernel().free_frames();
    server = std::make_unique<KvServer>(*cluster, sn, scfg);
    ASSERT_TRUE(ok(server->init()));
    client = std::make_unique<KvClient>(*cluster, cn, "cli", ccfg);
    ASSERT_TRUE(ok(client->open()));
  }

  /// Flush `conn`, run server service cycles and client harvests until both
  /// go quiet; returns the completed operations.
  std::vector<KvResult> pump(std::uint32_t conn) {
    std::vector<KvResult> out;
    (void)client->flush(conn);
    for (int spin = 0; spin < 64; ++spin) {
      std::uint32_t moved = 0;
      while (const std::uint32_t n = server->service()) moved += n;
      while (const std::uint32_t n = client->harvest(out)) moved += n;
      if (moved == 0) break;
    }
    return out;
  }

  /// Stage one PUT of `len` deterministic bytes under `key` (not flushed).
  void stage_put(std::uint32_t conn, std::uint64_t key, std::uint32_t len) {
    scratch.resize(len);
    KvClient::fill_value(scratch, key, kValueSeed);
    std::uint64_t req_id = 0;
    ASSERT_TRUE(ok(client->put(conn, key, scratch, req_id)));
  }

  /// One complete PUT round trip; returns the result.
  KvResult put_now(std::uint32_t conn, std::uint64_t key, std::uint32_t len) {
    stage_put(conn, key, len);
    const std::vector<KvResult> r = pump(conn);
    EXPECT_EQ(r.size(), 1u);
    return r.empty() ? KvResult{} : r[0];
  }

  /// One complete GET round trip; returns the result.
  KvResult get_now(std::uint32_t conn, std::uint64_t key) {
    std::uint64_t req_id = 0;
    EXPECT_TRUE(ok(client->get(conn, key, req_id)));
    const std::vector<KvResult> r = pump(conn);
    EXPECT_EQ(r.size(), 1u);
    return r.empty() ? KvResult{} : r[0];
  }

  /// Arm one fault rule cluster-wide (events before this call never count).
  void arm(fault::FaultRule rule, std::uint64_t seed = 7) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.add(rule);
    faults = std::make_unique<fault::FaultEngine>(plan, cluster->clock());
    cluster->inject_faults(faults.get());
  }

  void disarm() { cluster->inject_faults(nullptr); }

  std::unique_ptr<via::Cluster> cluster;
  via::NodeId sn = 0, cn = 0;
  pinmgr::PinGovernor* gov = nullptr;
  /// Each node's free frames just before the server and client were built.
  std::uint32_t server_free_frames = 0, client_free_frames = 0;
  std::unique_ptr<KvServer> server;
  std::unique_ptr<KvClient> client;
  std::unique_ptr<fault::FaultEngine> faults;
  std::vector<std::byte> scratch;
};

class KvBox : public ::testing::Test, public KvRig {
 protected:
  void SetUp() override { build(); }
};

}  // namespace vialock::svc
