// property_test.cc - system-wide invariants under randomized workloads.
//
// A model checker in miniature: drive the whole stack (mmap/munmap, touch,
// fork/exit, register/deregister, reclaim, layer teardown) with random
// operations and verify after every batch that the kernel's global
// accounting is self-consistent.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "fault/fault.h"
#include "mp/comm.h"
#include "msg/transport.h"
#include "util/rng.h"
#include "via/via_util.h"

namespace vialock {
namespace {

using simkern::kPageShift;
using simkern::kPageSize;
using simkern::Pfn;
using simkern::Pid;
using simkern::VAddr;

/// Global consistency of the memory subsystem.
void check_invariants(simkern::Kernel& kern,
                      const std::vector<Pid>& pids) {
  auto& phys = kern.phys();

  // 1. Frame accounting: frames are either free (count 0) or in use; the
  //    buddy's free count matches the page map.
  std::uint32_t free_by_map = 0;
  for (Pfn pfn = 0; pfn < phys.num_frames(); ++pfn) {
    const auto& pg = phys.page(pfn);
    if (pg.free()) {
      ++free_by_map;
      ASSERT_EQ(pg.pin_count, 0u) << "pinned frame on the free list";
    }
  }
  ASSERT_EQ(free_by_map, kern.buddy().free_frames())
      << "page map and buddy disagree about free frames";

  // 2. Every present PTE references an allocated frame; count per-frame PTE
  //    references and swap-slot references.
  std::map<Pfn, std::uint32_t> pte_refs;
  std::map<simkern::SwapSlot, std::uint32_t> slot_refs;
  for (const Pid pid : pids) {
    if (!kern.task_exists(pid)) continue;
    auto& t = kern.task(pid);
    std::uint64_t rss = 0;
    t.mm.vmas.for_each([&](const simkern::Vma& vma) {
      t.mm.pt.for_each_in(vma.start, vma.end, [&](VAddr, simkern::Pte& pte) {
        if (pte.present) {
          ASSERT_TRUE(phys.valid(pte.pfn));
          ASSERT_GT(phys.page(pte.pfn).count, 0u)
              << "present PTE references a free frame";
          ++pte_refs[pte.pfn];
          ++rss;
        } else if (pte.swap != simkern::kInvalidSwapSlot) {
          ++slot_refs[pte.swap];
        }
      });
    });
    ASSERT_EQ(rss, t.mm.rss) << "rss accounting drifted for pid " << pid;
  }

  // 3. A frame's reference count is at least its PTE references (extra
  //    references come from registrations/kiobufs).
  for (const auto& [pfn, refs] : pte_refs) {
    ASSERT_GE(phys.page(pfn).count, refs);
  }

  // 4. Swap map: every slot referenced by a PTE is allocated with at least
  //    that many references.
  for (const auto& [slot, refs] : slot_refs) {
    ASSERT_GE(kern.swap().refcount(slot), refs)
        << "swap slot underaccounted";
  }
}

class SystemProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemProperty, RandomWorkloadKeepsKernelConsistent) {
  Clock clock;
  CostModel costs;
  via::NodeSpec spec = test::small_node(via::PolicyKind::Kiobuf,
                                        /*frames=*/384, /*tpt_entries=*/256);
  spec.kernel.swap_slots = 2048;
  via::Node node(spec, clock, costs);
  auto& kern = node.kernel();
  Rng rng(GetParam());

  struct Region {
    Pid pid;
    VAddr addr;
    std::uint64_t pages;
  };
  struct Reg {
    via::MemHandle mh;
  };
  std::vector<Pid> pids;
  std::vector<Region> regions;
  std::vector<Reg> registrations;
  std::map<Pid, via::ProtectionTag> tags;

  auto new_task = [&] {
    const Pid pid = kern.create_task("w" + std::to_string(pids.size()));
    pids.push_back(pid);
    tags[pid] = node.agent().create_ptag(pid);
  };
  new_task();

  for (int step = 0; step < 600; ++step) {
    const auto op = rng.below(100);
    if (op < 10 && pids.size() < 6) {
      new_task();
    } else if (op < 14 && pids.size() > 1) {
      // Exit a task (dropping its regions; registrations keep their pins -
      // harvest those first to keep the test's bookkeeping simple).
      const Pid victim = pids[rng.below(pids.size())];
      bool has_reg = false;
      for (const auto& r : registrations) {
        if (node.agent().lock_handle(r.mh.id) &&
            node.agent().lock_handle(r.mh.id)->pid == victim) {
          has_reg = true;
          break;
        }
      }
      if (!has_reg) {
        std::erase_if(regions, [&](const Region& r) { return r.pid == victim; });
        kern.exit_task(victim);
        std::erase(pids, victim);
      }
    } else if (op < 40) {
      // mmap a region on a random task.
      const Pid pid = pids[rng.below(pids.size())];
      const std::uint64_t pages = rng.between(1, 16);
      const auto addr = kern.sys_mmap_anon(
          pid, pages << kPageShift,
          simkern::VmFlag::Read | simkern::VmFlag::Write);
      if (addr) regions.push_back({pid, *addr, pages});
    } else if (op < 60 && !regions.empty()) {
      // Touch random pages of a random region.
      const Region& r = regions[rng.below(regions.size())];
      for (int i = 0; i < 4; ++i) {
        const VAddr v = r.addr + (rng.below(r.pages) << kPageShift);
        (void)kern.touch(r.pid, v, rng.chance(0.7));
      }
    } else if (op < 70 && !regions.empty()) {
      // munmap a region (registrations over it stay pinned - allowed).
      const auto idx = rng.below(regions.size());
      const Region r = regions[idx];
      regions[idx] = regions.back();
      regions.pop_back();
      (void)kern.sys_munmap(r.pid, r.addr, r.pages << kPageShift);
    } else if (op < 82 && !regions.empty()) {
      // Register a sub-range of a region.
      const Region& r = regions[rng.below(regions.size())];
      const std::uint64_t first = rng.below(r.pages);
      const std::uint64_t count = rng.between(1, r.pages - first);
      via::MemHandle mh;
      if (ok(node.agent().register_mem(r.pid, r.addr + (first << kPageShift),
                                       count << kPageShift, tags[r.pid], mh))) {
        registrations.push_back({mh});
      }
    } else if (op < 92 && !registrations.empty()) {
      // Deregister a random registration.
      const auto idx = rng.below(registrations.size());
      (void)node.agent().deregister_mem(registrations[idx].mh);
      registrations[idx] = registrations.back();
      registrations.pop_back();
    } else if (op < 94 && !regions.empty()) {
      // mprotect a sub-range.
      const Region& r = regions[rng.below(regions.size())];
      const std::uint64_t first = rng.below(r.pages);
      const std::uint64_t count = rng.between(1, r.pages - first);
      (void)kern.sys_mprotect(
          r.pid, r.addr + (first << kPageShift), count << kPageShift,
          rng.chance(0.5) ? simkern::VmFlag::Read
                          : simkern::VmFlag::Read | simkern::VmFlag::Write);
    } else if (op < 96 && !regions.empty()) {
      // madvise(MADV_DONTFORK) toggling.
      const Region& r = regions[rng.below(regions.size())];
      (void)kern.sys_madvise_dontfork(r.pid, r.addr, r.pages << kPageShift,
                                      rng.chance(0.5));
    } else {
      // Direct reclaim.
      (void)kern.try_to_free_pages(static_cast<std::uint32_t>(
          rng.between(1, 32)));
    }

    if (step % 50 == 49) {
      check_invariants(kern, pids);
      const auto issues = kern.self_check();
      ASSERT_TRUE(issues.empty()) << issues.front();
    }
  }

  // Teardown in order; everything must come back.
  for (const auto& r : registrations)
    (void)node.agent().deregister_mem(r.mh);
  for (const Pid pid : pids) kern.exit_task(pid);
  std::uint32_t free_frames = kern.buddy().free_frames();
  EXPECT_EQ(free_frames, kern.buddy().total_frames())
      << "frames leaked after full teardown";
  for (std::uint32_t slot = 0; slot < kern.swap().num_slots(); ++slot)
    ASSERT_EQ(kern.swap().refcount(slot), 0u) << "swap slot leaked";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemProperty,
                         ::testing::Values(11, 23, 47, 101, 997, 8191));

/// Registered pages never relocate, no matter what the workload does -
/// stated as a property over random interleavings.
class PinStability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PinStability, RegisteredPagesNeverMove) {
  Clock clock;
  CostModel costs;
  via::NodeSpec spec = test::small_node(via::PolicyKind::Kiobuf,
                                        /*frames=*/384, /*tpt_entries=*/128);
  spec.kernel.swap_slots = 4096;
  via::Node node(spec, clock, costs);
  auto& kern = node.kernel();
  Rng rng(GetParam());

  const Pid app = kern.create_task("app");
  const VAddr buf = test::must_mmap(kern, app, 16);
  const auto tag = node.agent().create_ptag(app);
  via::MemHandle mh;
  ASSERT_TRUE(ok(node.agent().register_mem(app, buf, 16 * kPageSize, tag, mh)));
  const auto pinned = node.agent().lock_handle(mh.id)->pfns;

  // Churn: a background task allocates/touches/exits repeatedly.
  for (int round = 0; round < 10; ++round) {
    const Pid churn = kern.create_task("churn");
    const std::uint64_t pages = rng.between(100, 400);
    const auto addr = kern.sys_mmap_anon(
        churn, pages << kPageShift,
        simkern::VmFlag::Read | simkern::VmFlag::Write);
    ASSERT_TRUE(addr.has_value());
    for (std::uint64_t p = 0; p < pages; ++p) {
      if (!ok(kern.touch(churn, *addr + (p << kPageShift), true))) break;
    }
    // The app also keeps touching its buffer.
    for (int i = 0; i < 8; ++i) {
      const VAddr v = buf + (rng.below(16) << kPageShift);
      ASSERT_TRUE(ok(kern.touch(app, v, true)));
    }
    for (std::uint32_t pg = 0; pg < 16; ++pg) {
      ASSERT_EQ(*kern.resolve(app, buf + pg * kPageSize), pinned[pg])
          << "round " << round << " page " << pg;
    }
    kern.exit_task(churn);
  }
  ASSERT_TRUE(ok(node.agent().deregister_mem(mh)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PinStability,
                         ::testing::Values(3, 17, 2718, 31337));

/// Layer teardown returns every pin: each step builds a msg::Channel or a
/// 3-rank mp::Comm on one cluster, moves random eager and rendezvous
/// payloads (sometimes across a one-shot connection reset), destroys the
/// layer, and then every node must be quiescent and self-consistent.
TEST(LayerTeardown, EveryLayerLeavesItsNodesQuiescent) {
  via::Cluster cluster;
  std::vector<via::NodeId> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(cluster.add_node(test::small_node(
        via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048)));
  }
  Rng rng(2026);
  const auto length = [&rng] {
    return static_cast<std::uint32_t>(rng.chance(0.5)
                                          ? rng.between(1, 4000)
                                          : rng.between(4096, 64 * 1024));
  };
  std::uint32_t moved = 0;
  std::uint32_t failed = 0;
  const auto count = [&](bool done) { done ? ++moved : ++failed; };
  for (int step = 0; step < 24; ++step) {
    fault::FaultPlan plan;
    plan.seed = rng.next();
    plan.add({.site = fault::FaultSite::Connection,
              .action = fault::FaultAction::Fail,
              .after_events = rng.below(8),
              .max_triggers = 1});
    fault::FaultEngine engine(plan, cluster.clock());
    const bool faulty = rng.chance(0.5);
    const auto transfers = rng.between(1, 6);
    if (rng.chance(0.5)) {
      msg::Channel::Config cfg;
      cfg.user_heap_bytes = 1ULL << 20;
      cfg.preregister_heaps = rng.chance(0.5);
      msg::Channel channel(cluster, nodes[0], nodes[1], cfg);
      ASSERT_TRUE(ok(channel.init()));
      if (faulty) cluster.inject_faults(&engine);
      for (std::uint64_t i = 0; i < transfers; ++i)
        count(ok(channel.transfer_auto(0, 0, length())));
    } else {
      mp::Comm::Config cfg;
      cfg.heap_bytes = 256 * 1024;
      mp::Comm comm(cluster, nodes, cfg);
      ASSERT_TRUE(ok(comm.init()));
      if (faulty) cluster.inject_faults(&engine);
      for (std::uint64_t i = 0; i < transfers; ++i) {
        const auto from = static_cast<mp::Rank>(rng.below(3));
        const auto to = static_cast<mp::Rank>((from + rng.between(1, 2)) % 3);
        const std::uint32_t len = length();
        const mp::ReqId r = comm.irecv(to, static_cast<std::int32_t>(from),
                                       /*tag=*/1, 0, len);
        const mp::ReqId s = comm.isend(from, to, /*tag=*/1, 0, len);
        const bool received = comm.wait(r);
        count(comm.wait(s) && received);
      }
    }
    cluster.inject_faults(nullptr);
    for (const via::NodeId n : nodes) {
      test::expect_quiescent(cluster.node(n));
      const auto issues = cluster.node(n).kernel().self_check();
      ASSERT_TRUE(issues.empty()) << "step " << step << ": " << issues.front();
    }
  }
  // Both outcomes occur: the resets reach transfers in flight.
  EXPECT_GT(moved, 0u);
  EXPECT_GT(failed, 0u);
}

}  // namespace
}  // namespace vialock
