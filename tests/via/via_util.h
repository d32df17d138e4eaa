// via_util.h - shared two-node cluster fixture for the VIA-layer tests.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "../test_util.h"
#include "via/node.h"
#include "via/vipl.h"

namespace vialock::test {

inline via::NodeSpec small_node(via::PolicyKind policy = via::PolicyKind::Kiobuf,
                                std::uint32_t frames = 512,
                                std::uint32_t tpt_entries = 256) {
  via::NodeSpec spec;
  spec.kernel = small_config(frames);
  spec.nic.tpt_entries = tpt_entries;
  // Unit tests assert per-page TPT geometry (entry i <-> page i, used() ==
  // pages); pin the classic order-0 layout. Superpage-specific tests build
  // their own NodeSpec with a nonzero order.
  spec.nic.max_superpage_order = 0;
  spec.policy = policy;
  return spec;
}

/// Fail the test with each pin, TPT entry or governor charge `node` still
/// holds (Node::quiescent()).
inline void expect_quiescent(via::Node& node) {
  for (const std::string& v : node.quiescent()) ADD_FAILURE() << v;
}

/// Two nodes, one process each, a connected VI pair and a registered 16-page
/// buffer per side.
class TwoNodeFixture : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kBufPages = 16;

  void build(via::PolicyKind policy = via::PolicyKind::Kiobuf) {
    cluster = std::make_unique<via::Cluster>();
    n0 = cluster->add_node(small_node(policy));
    n1 = cluster->add_node(small_node(policy));
    p0 = cluster->node(n0).kernel().create_task("proc0");
    p1 = cluster->node(n1).kernel().create_task("proc1");
    v0 = std::make_unique<via::Vipl>(cluster->node(n0).agent(), p0);
    v1 = std::make_unique<via::Vipl>(cluster->node(n1).agent(), p1);
    ASSERT_TRUE(ok(v0->open()));
    ASSERT_TRUE(ok(v1->open()));
    buf0 = must_mmap(cluster->node(n0).kernel(), p0, kBufPages);
    buf1 = must_mmap(cluster->node(n1).kernel(), p1, kBufPages);
    ASSERT_TRUE(ok(v0->register_mem(buf0, kBufPages * simkern::kPageSize, mh0)));
    ASSERT_TRUE(ok(v1->register_mem(buf1, kBufPages * simkern::kPageSize, mh1)));
    ASSERT_TRUE(ok(v0->create_vi(vi0)));
    ASSERT_TRUE(ok(v1->create_vi(vi1)));
    ASSERT_NE(vi0, via::kInvalidVi);
    ASSERT_NE(vi1, via::kInvalidVi);
    ASSERT_TRUE(ok(cluster->fabric().connect(n0, vi0, n1, vi1)));
  }

  void SetUp() override { build(); }

  simkern::Kernel& kern0() { return cluster->node(n0).kernel(); }
  simkern::Kernel& kern1() { return cluster->node(n1).kernel(); }

  std::unique_ptr<via::Cluster> cluster;
  via::NodeId n0 = 0, n1 = 0;
  simkern::Pid p0 = 0, p1 = 0;
  std::unique_ptr<via::Vipl> v0, v1;
  simkern::VAddr buf0 = 0, buf1 = 0;
  via::MemHandle mh0, mh1;
  via::ViId vi0 = via::kInvalidVi, vi1 = via::kInvalidVi;
};

}  // namespace vialock::test
