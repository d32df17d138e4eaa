// kernel_agent_test.cc - registration ioctls: TPT programming, handle
// lifecycle, TPT exhaustion and its rollback.
#include "via/kernel_agent.h"

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "via_util.h"

namespace vialock::via {
namespace {

using simkern::kPageSize;
using test::must_mmap;
using test::small_node;

struct AgentBox {
  explicit AgentBox(PolicyKind policy = PolicyKind::Kiobuf,
                    std::uint32_t tpt_entries = 64)
      : node(test::small_node(policy, 512, tpt_entries), clock, costs) {}
  Clock clock;
  CostModel costs;
  Node node;
};

TEST(KernelAgent, RegisterProgramsTptEntries) {
  AgentBox box;
  auto& kern = box.node.kernel();
  auto& agent = box.node.agent();
  const auto pid = kern.create_task("t");
  const auto a = must_mmap(kern, pid, 4);
  const ProtectionTag tag = agent.create_ptag(pid);
  ASSERT_NE(tag, kInvalidTag);
  MemHandle mh;
  ASSERT_TRUE(ok(agent.register_mem(pid, a, 4 * kPageSize, tag, mh)));
  EXPECT_TRUE(mh.valid());
  EXPECT_EQ(mh.pages, 4u);
  EXPECT_EQ(mh.tag, tag);
  EXPECT_EQ(box.node.nic().tpt().used(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const TptEntry& e = box.node.nic().tpt().get(mh.tpt_base + i);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.tag, tag);
    EXPECT_EQ(e.pfn, *kern.resolve(pid, a + i * kPageSize));
  }
  EXPECT_EQ(box.node.nic().stats().tpt_writes, 4u);
  EXPECT_EQ(agent.stats().registrations, 1u);
}

TEST(KernelAgent, DeregisterReleasesTptAndUnpins) {
  AgentBox box;
  auto& kern = box.node.kernel();
  auto& agent = box.node.agent();
  const auto pid = kern.create_task("t");
  const auto a = must_mmap(kern, pid, 4);
  const ProtectionTag tag = agent.create_ptag(pid);
  MemHandle mh;
  ASSERT_TRUE(ok(agent.register_mem(pid, a, 4 * kPageSize, tag, mh)));
  ASSERT_TRUE(ok(agent.deregister_mem(mh)));
  EXPECT_EQ(box.node.nic().tpt().used(), 0u);
  EXPECT_EQ(kern.phys().page(*kern.resolve(pid, a)).pin_count, 0u);
  EXPECT_EQ(agent.live_registrations(), 0u);
  EXPECT_EQ(agent.deregister_mem(mh), KStatus::NoEnt) << "double dereg";
}

TEST(KernelAgent, TptExhaustionIsNoSpcAndUndoesLock) {
  AgentBox box(PolicyKind::Kiobuf, /*tpt_entries=*/8);
  auto& kern = box.node.kernel();
  auto& agent = box.node.agent();
  const auto pid = kern.create_task("t");
  const auto a = must_mmap(kern, pid, 16);
  const ProtectionTag tag = agent.create_ptag(pid);
  MemHandle mh;
  EXPECT_EQ(agent.register_mem(pid, a, 16 * kPageSize, tag, mh),
            KStatus::NoSpc);
  EXPECT_EQ(agent.stats().tpt_full, 1u);
  // Lock must have been rolled back.
  ASSERT_TRUE(ok(kern.touch(pid, a, true)));
  EXPECT_EQ(kern.phys().page(*kern.resolve(pid, a)).pin_count, 0u);
}

TEST(KernelAgent, MultipleRegistrationsOfSameRangeCoexist) {
  // "the VIA specification explicitly allows memory regions to be registered
  // several times" - with the kiobuf policy each registration is
  // independent.
  AgentBox box;
  auto& kern = box.node.kernel();
  auto& agent = box.node.agent();
  const auto pid = kern.create_task("t");
  const auto a = must_mmap(kern, pid, 2);
  const ProtectionTag tag = agent.create_ptag(pid);
  MemHandle m1;
  MemHandle m2;
  ASSERT_TRUE(ok(agent.register_mem(pid, a, 2 * kPageSize, tag, m1)));
  ASSERT_TRUE(ok(agent.register_mem(pid, a, 2 * kPageSize, tag, m2)));
  EXPECT_NE(m1.id, m2.id);
  EXPECT_NE(m1.tpt_base, m2.tpt_base);
  EXPECT_EQ(kern.phys().page(*kern.resolve(pid, a)).pin_count, 2u);
  ASSERT_TRUE(ok(agent.deregister_mem(m1)));
  EXPECT_EQ(kern.phys().page(*kern.resolve(pid, a)).pin_count, 1u);
  ASSERT_TRUE(ok(agent.deregister_mem(m2)));
}

TEST(KernelAgent, RegistrationWithDifferentTagsIsPossible) {
  // E.g. one process, two protection tags over the same buffer (the case the
  // paper gives for why caching alone cannot eliminate re-registration).
  AgentBox box;
  auto& kern = box.node.kernel();
  auto& agent = box.node.agent();
  const auto pid = kern.create_task("t");
  const auto a = must_mmap(kern, pid, 2);
  const ProtectionTag t1 = agent.create_ptag(pid);
  const ProtectionTag t2 = agent.create_ptag(pid);
  ASSERT_NE(t1, t2);
  MemHandle m1;
  MemHandle m2;
  ASSERT_TRUE(ok(agent.register_mem(pid, a, 2 * kPageSize, t1, m1)));
  ASSERT_TRUE(ok(agent.register_mem(pid, a, 2 * kPageSize, t2, m2)));
  EXPECT_EQ(box.node.nic().tpt().get(m1.tpt_base).tag, t1);
  EXPECT_EQ(box.node.nic().tpt().get(m2.tpt_base).tag, t2);
  ASSERT_TRUE(ok(agent.deregister_mem(m1)));
  ASSERT_TRUE(ok(agent.deregister_mem(m2)));
}

TEST(KernelAgent, InvalidArgumentsRejected) {
  AgentBox box;
  auto& kern = box.node.kernel();
  auto& agent = box.node.agent();
  const auto pid = kern.create_task("t");
  const auto a = must_mmap(kern, pid, 2);
  MemHandle mh;
  EXPECT_EQ(agent.register_mem(pid, a, kPageSize, kInvalidTag, mh),
            KStatus::Inval);
  const ProtectionTag tag = agent.create_ptag(pid);
  EXPECT_EQ(agent.register_mem(pid, a, 0, tag, mh), KStatus::Inval);
  EXPECT_EQ(agent.create_ptag(9999), kInvalidTag);
}

TEST(KernelAgent, TptAllocFaultRollsBackPinAndCharge) {
  // S2 regression: Tpt::alloc failing partway through a registration (here
  // via the injectable TptAlloc site) must roll back *everything* claimed
  // before it - the governor charge and the pin - not just skip the TPT
  // programming. The seed's rollback missed the governor charge, stranding
  // quota on a registration that never existed.
  AgentBox box;
  auto& kern = box.node.kernel();
  auto& agent = box.node.agent();
  auto& gov = box.node.enable_governor({});

  fault::FaultPlan plan;
  plan.add({.site = fault::FaultSite::TptAlloc,
            .action = fault::FaultAction::Fail,
            .max_triggers = 1});
  fault::FaultEngine engine(plan, box.clock);
  box.node.set_fault_engine(&engine);

  const auto pid = kern.create_task("t");
  const auto a = must_mmap(kern, pid, 4);
  const ProtectionTag tag = agent.create_ptag(pid);
  MemHandle mh;
  EXPECT_EQ(agent.register_mem(pid, a, 4 * kPageSize, tag, mh),
            KStatus::NoSpc);
  EXPECT_FALSE(mh.valid());
  EXPECT_EQ(agent.stats().tpt_full, 1u);
  EXPECT_EQ(agent.live_registrations(), 0u);
  EXPECT_EQ(box.node.nic().tpt().used(), 0u);
  EXPECT_EQ(kern.pinned_frames(), 0u) << "pin must be rolled back";
  EXPECT_EQ(gov.total_charged(), 0u) << "charge must be rolled back";
  EXPECT_TRUE(kern.self_check().empty());

  // The fault was one-shot; the same registration now succeeds and charges.
  ASSERT_TRUE(ok(agent.register_mem(pid, a, 4 * kPageSize, tag, mh)));
  EXPECT_EQ(gov.tenant_charged(pid), 4u);
  ASSERT_TRUE(ok(agent.deregister_mem(mh)));
  EXPECT_EQ(gov.total_charged(), 0u);
}

TEST(KernelAgent, RegistrationChargesSyscallAndPciTime) {
  AgentBox box;
  auto& kern = box.node.kernel();
  auto& agent = box.node.agent();
  const auto pid = kern.create_task("t");
  const auto a = must_mmap(kern, pid, 8);
  const ProtectionTag tag = agent.create_ptag(pid);
  const Nanos before = box.clock.now();
  MemHandle mh;
  ASSERT_TRUE(ok(agent.register_mem(pid, a, 8 * kPageSize, tag, mh)));
  const Nanos elapsed = box.clock.now() - before;
  EXPECT_GE(elapsed, box.costs.syscall + 8 * box.costs.pci_reg_write);
  ASSERT_TRUE(ok(agent.deregister_mem(mh)));
}

}  // namespace
}  // namespace vialock::via
