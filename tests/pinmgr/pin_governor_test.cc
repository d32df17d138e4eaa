// pin_governor_test.cc - the pin governor's admission control: per-tenant
// quotas, frame-deduplicated accounting, QoS tiers, tenant teardown, fault
// injection at the admission/reclaim sites, and same-seed determinism.
#include "pinmgr/pin_governor.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <vector>

#include "../via/via_util.h"
#include "fault/fault.h"
#include "obs/export.h"
#include "util/rng.h"

namespace vialock::pinmgr {
namespace {

using simkern::kPageSize;
using test::must_mmap;

struct GovBox {
  explicit GovBox(GovernorConfig cfg = {}, std::uint32_t frames = 512,
                  std::uint32_t tpt_entries = 256)
      : node(test::small_node(via::PolicyKind::Kiobuf, frames, tpt_entries),
             clock, costs),
        gov(node.enable_governor(cfg)),
        pid(node.kernel().create_task("app")),
        tag(node.agent().create_ptag(pid)) {}

  KStatus reg(simkern::VAddr addr, std::uint64_t pages, via::MemHandle& out) {
    return node.agent().register_mem(pid, addr, pages * kPageSize, tag, out);
  }

  Clock clock;
  CostModel costs;
  via::Node node;
  PinGovernor& gov;
  simkern::Pid pid;
  via::ProtectionTag tag;
};

TEST(PinGovernor, QuotaExceededReturnsNoMemAndRollsBack) {
  GovBox box;
  box.gov.set_tenant(box.pid, /*quota_pages=*/4, QosTier::BestEffort);
  const auto a = must_mmap(box.node.kernel(), box.pid, 16);
  via::MemHandle ok_mh;
  ASSERT_TRUE(ok(box.reg(a, 4, ok_mh)));
  EXPECT_EQ(box.gov.tenant_charged(box.pid), 4u);

  via::MemHandle over;
  EXPECT_EQ(box.reg(a + 4 * kPageSize, 4, over), KStatus::NoMem);
  EXPECT_EQ(box.node.agent().stats().admission_rejects, 1u);
  EXPECT_EQ(box.gov.tenant_charged(box.pid), 4u) << "rejection charges nothing";
  EXPECT_EQ(box.node.nic().tpt().used(), 4u) << "no TPT slots leaked";
  // The failed registration's pages must be unpinned again.
  const auto pfn = box.node.kernel().resolve(box.pid, a + 4 * kPageSize);
  ASSERT_TRUE(pfn.has_value());
  EXPECT_EQ(box.node.kernel().phys().page(*pfn).pin_count, 0u);
  EXPECT_EQ(box.gov.stats().rejected_quota, 1u);

  // Releasing the first registration frees quota; the retry succeeds.
  ASSERT_TRUE(ok(box.node.agent().deregister_mem(ok_mh)));
  ASSERT_TRUE(ok(box.reg(a + 4 * kPageSize, 4, over)));
  EXPECT_EQ(box.gov.tenant_charged(box.pid), 4u);
}

TEST(PinGovernor, OverlappingRegistrationsChargedOnce) {
  GovBox box;
  box.gov.set_tenant(box.pid, /*quota_pages=*/8, QosTier::BestEffort);
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle m1, m2;
  ASSERT_TRUE(ok(box.reg(a, 8, m1)));
  // The identical range again: within quota because the frames dedup.
  ASSERT_TRUE(ok(box.reg(a, 8, m2)));
  EXPECT_EQ(box.gov.tenant_charged(box.pid), 8u)
      << "the paper's double-count bug, done right";
  EXPECT_EQ(box.gov.stats().dedup_hits, 8u);
  EXPECT_EQ(box.gov.total_charged(), 8u);

  // Dropping one registration must not strip the other's charge.
  ASSERT_TRUE(ok(box.node.agent().deregister_mem(m1)));
  EXPECT_EQ(box.gov.tenant_charged(box.pid), 8u) << "still pinned via m2";
  ASSERT_TRUE(ok(box.node.agent().deregister_mem(m2)));
  EXPECT_EQ(box.gov.tenant_charged(box.pid), 0u);
  EXPECT_EQ(box.gov.total_charged(), 0u);
}

TEST(PinGovernor, PartialOverlapChargesOnlyFreshFrames) {
  GovBox box;
  box.gov.set_tenant(box.pid, /*quota_pages=*/12, QosTier::BestEffort);
  const auto a = must_mmap(box.node.kernel(), box.pid, 16);
  via::MemHandle m1, m2;
  ASSERT_TRUE(ok(box.reg(a, 8, m1)));
  // [4, 12) overlaps [0, 8) in 4 pages: only 4 fresh frames are charged.
  ASSERT_TRUE(ok(box.reg(a + 4 * kPageSize, 8, m2)));
  EXPECT_EQ(box.gov.tenant_charged(box.pid), 12u);
  EXPECT_EQ(box.gov.stats().dedup_hits, 4u);
}

TEST(PinGovernor, BestEffortStopsAtReserveGuaranteedDoesNot) {
  GovernorConfig cfg;
  cfg.host_ceiling = 16;
  cfg.guaranteed_reserve = 8;
  GovBox box(cfg);
  auto& kern = box.node.kernel();
  const auto be_pid = box.pid;
  const auto g_pid = kern.create_task("guaranteed");
  const auto g_tag = box.node.agent().create_ptag(g_pid);
  box.gov.set_tenant(be_pid, /*quota_pages=*/64, QosTier::BestEffort);
  box.gov.set_tenant(g_pid, /*quota_pages=*/64, QosTier::Guaranteed);

  const auto be_buf = must_mmap(kern, be_pid, 16);
  const auto g_buf = must_mmap(kern, g_pid, 16);

  // Best effort may use ceiling - reserve = 8 pages; the 9th page fails
  // cleanly with Again instead of eating into the guaranteed reserve.
  via::MemHandle be1, be2;
  ASSERT_TRUE(ok(box.reg(be_buf, 8, be1)));
  EXPECT_EQ(box.reg(be_buf + 8 * kPageSize, 1, be2), KStatus::Again);
  EXPECT_EQ(box.gov.stats().rejected_ceiling, 1u);

  // The guaranteed tenant still gets its reserved 8 pages.
  via::MemHandle g1;
  ASSERT_TRUE(ok(box.node.agent().register_mem(g_pid, g_buf, 8 * kPageSize,
                                               g_tag, g1)));
  EXPECT_EQ(box.gov.total_charged(), 16u);
}

TEST(PinGovernor, ReleaseTenantLeaksNothing) {
  GovernorConfig cfg;
  cfg.lazy_batch = 64;  // keep deregs queued so teardown must flush
  GovBox box(cfg);
  auto& kern = box.node.kernel();
  auto& agent = box.node.agent();
  const auto a = must_mmap(kern, box.pid, 24);
  via::MemHandle m1, m2, m3;
  ASSERT_TRUE(ok(box.reg(a, 8, m1)));
  ASSERT_TRUE(ok(box.reg(a + 8 * kPageSize, 8, m2)));
  ASSERT_TRUE(ok(box.reg(a + 16 * kPageSize, 8, m3)));
  ASSERT_TRUE(ok(agent.deregister_mem(m1)));  // parked in the lazy queue
  EXPECT_EQ(box.gov.lazy_queue_depth(), 1u);

  agent.release_tenant(box.pid);
  EXPECT_FALSE(box.gov.tenant_known(box.pid));
  EXPECT_EQ(box.gov.total_charged(), 0u);
  EXPECT_EQ(box.gov.lazy_queue_depth(), 0u);
  EXPECT_EQ(agent.live_registrations(), 0u);
  EXPECT_EQ(box.node.nic().tpt().used(), 0u);
  EXPECT_EQ(box.gov.stats().tenants_removed, 1u);
  EXPECT_TRUE(kern.self_check().empty());
}

TEST(PinGovernor, RemoveTenantWithLiveChargesUnchargesGlobally) {
  // Seed bug: remove_tenant() guarded "no live charges" with assert only; an
  // NDEBUG build erased the tenant record and kept counting its frames in
  // total_charged_ forever, silently shrinking the host ceiling. The forced
  // path must uncharge the survivors first.
  GovernorConfig cfg;
  cfg.host_ceiling = 16;
  GovBox box(cfg);
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle mh;
  ASSERT_TRUE(ok(box.reg(a, 8, mh)));
  ASSERT_EQ(box.gov.total_charged(), 8u);

  // Tenant ripped out with its registration still live (a crashed process
  // whose driver teardown never ran release_tenant).
  box.gov.remove_tenant(box.pid);
  EXPECT_FALSE(box.gov.tenant_known(box.pid));
  EXPECT_EQ(box.gov.stats().tenants_removed, 1u);
  EXPECT_EQ(box.gov.stats().forced_tenant_removals, 1u);
  EXPECT_EQ(box.gov.stats().forced_frames_uncharged, 8u);
  EXPECT_EQ(box.gov.total_charged(), 0u)
      << "the ceiling must not shrink by the leaked frames";

  // The full ceiling is available to the next tenant.
  const auto p2 = box.node.kernel().create_task("next");
  const auto t2 = box.node.agent().create_ptag(p2);
  const auto b = must_mmap(box.node.kernel(), p2, 16);
  via::MemHandle m2;
  ASSERT_TRUE(ok(box.node.agent().register_mem(p2, b, 16 * kPageSize, t2, m2)));
  EXPECT_EQ(box.gov.total_charged(), 16u);
}

TEST(PinGovernor, RemoveTenantSharedFramesKeepOtherTenantsCharges) {
  // A frame charged by two tenants survives the forced removal of one: only
  // the removed tenant's multiplicity is subtracted from the global count.
  GovBox box;
  auto& kern = box.node.kernel();
  const auto p2 = kern.create_task("peer");
  const auto t2 = box.node.agent().create_ptag(p2);
  const auto shm = kern.shm_create(4 * kPageSize);
  ASSERT_NE(shm, simkern::kInvalidShm);
  const auto a1 = kern.shm_attach(box.pid, shm);
  const auto a2 = kern.shm_attach(p2, shm);
  ASSERT_TRUE(a1 && a2);

  via::MemHandle m1, m2;
  ASSERT_TRUE(ok(box.reg(*a1, 4, m1)));
  ASSERT_TRUE(ok(
      box.node.agent().register_mem(p2, *a2, 4 * kPageSize, t2, m2)));
  ASSERT_EQ(box.gov.total_charged(), 4u) << "same frames, charged once";

  box.gov.remove_tenant(box.pid);
  EXPECT_EQ(box.gov.stats().forced_tenant_removals, 1u);
  EXPECT_EQ(box.gov.total_charged(), 4u)
      << "the peer's charge on the shared frames must survive";
  EXPECT_EQ(box.gov.tenant_charged(p2), 4u);
}

// Two tenants charging overlapping registrations on shared frames, with
// multiplicity > 1 both within a tenant and across tenants:
//   A: {10,11,12,13} + {12,13,14}    B: {13,14,15} twice
// leaves A on 5 distinct frames, B on 3 and the host on 6 (10..15).
struct SharedCharges {
  static constexpr std::array<simkern::Pfn, 4> kA1{10, 11, 12, 13};
  static constexpr std::array<simkern::Pfn, 3> kA2{12, 13, 14};
  static constexpr std::array<simkern::Pfn, 3> kB{13, 14, 15};

  SharedCharges() : b(box.node.kernel().create_task("peer")) {
    EXPECT_EQ(box.gov.charge(a, kA1), KStatus::Ok);
    EXPECT_EQ(box.gov.charge(a, kA2), KStatus::Ok);
    EXPECT_EQ(box.gov.charge(b, kB), KStatus::Ok);
    EXPECT_EQ(box.gov.charge(b, kB), KStatus::Ok);
  }
  /// (tenant A, tenant B, host-wide) distinct charged frames.
  [[nodiscard]] std::array<std::uint32_t, 3> counts() const {
    return {box.gov.tenant_charged(a), box.gov.tenant_charged(b),
            box.gov.total_charged()};
  }

  GovBox box;
  simkern::Pid a = box.pid;
  simkern::Pid b;
};

using Counts = std::array<std::uint32_t, 3>;

TEST(PinGovernor, SharedFramesStayExactThroughPartialUncharges) {
  SharedCharges sc;
  EXPECT_EQ(sc.counts(), (Counts{5, 3, 6}));
  EXPECT_EQ(sc.box.gov.stats().frames_charged, 8u);
  EXPECT_EQ(sc.box.gov.stats().dedup_hits, 5u);

  sc.box.gov.uncharge(sc.a, SharedCharges::kA1);
  EXPECT_EQ(sc.counts(), (Counts{3, 3, 4})) << "10 and 11 were A's alone";
  sc.box.gov.uncharge(sc.b, SharedCharges::kB);
  EXPECT_EQ(sc.counts(), (Counts{3, 3, 4})) << "B still holds its second";
  sc.box.gov.uncharge(sc.a, SharedCharges::kA2);
  EXPECT_EQ(sc.counts(), (Counts{0, 3, 3}));
  sc.box.gov.uncharge(sc.b, SharedCharges::kB);
  EXPECT_EQ(sc.counts(), (Counts{0, 0, 0}));
}

TEST(PinGovernor, ForcedRemovalKeepsSurvivorAndGlobalExact) {
  SharedCharges sc;
  sc.box.gov.remove_tenant(sc.a);
  EXPECT_EQ(sc.box.gov.stats().forced_tenant_removals, 1u);
  EXPECT_EQ(sc.box.gov.stats().forced_frames_uncharged, 3u)
      << "10, 11 and 12 had no other holder";
  EXPECT_EQ(sc.counts(), (Counts{0, 3, 3}));

  // The survivor's multiplicity of 2 unwinds exactly.
  sc.box.gov.uncharge(sc.b, SharedCharges::kB);
  EXPECT_EQ(sc.counts(), (Counts{0, 3, 3}));
  sc.box.gov.uncharge(sc.b, SharedCharges::kB);
  EXPECT_EQ(sc.counts(), (Counts{0, 0, 0}));
}

// Reference model of the governor's accounting: one multiset of frames per
// tenant. The host count is the number of frames any tenant holds, and the
// admission rule is the documented one (quota first, then the tier's share
// of the ceiling), with no rescue stage: no lazy queue, no reclaim client.
struct GovModel {
  struct Tenant {
    bool known = false;
    QosTier tier = QosTier::BestEffort;
    std::uint32_t quota = 0;
    std::map<simkern::Pfn, std::uint32_t> pins;  ///< frame -> multiplicity
    std::vector<std::vector<simkern::Pfn>> live;  ///< admitted charges
  };

  [[nodiscard]] bool held_by_any(simkern::Pfn pfn) const {
    for (const Tenant& t : tenants)
      if (t.pins.contains(pfn)) return true;
    return false;
  }
  [[nodiscard]] std::uint32_t host_charged() const {
    std::set<simkern::Pfn> held;
    for (const Tenant& t : tenants)
      for (const auto& [pfn, n] : t.pins) held.insert(pfn);
    return static_cast<std::uint32_t>(held.size());
  }

  /// The admission result charge() must return; applies it when Ok.
  KStatus charge(std::size_t i, const std::vector<simkern::Pfn>& pfns) {
    Tenant& t = tenants[i];
    if (!t.known) {
      t.known = true;
      t.quota = cfg.default_quota;
    }
    std::uint32_t fresh_tenant = 0, fresh_host = 0;
    for (const simkern::Pfn pfn : pfns) {
      if (t.pins.contains(pfn)) continue;
      ++fresh_tenant;
      if (!held_by_any(pfn)) ++fresh_host;
    }
    const std::uint32_t limit = t.tier == QosTier::Guaranteed
                                    ? cfg.host_ceiling
                                    : cfg.host_ceiling - cfg.guaranteed_reserve;
    if (t.pins.size() + fresh_tenant > t.quota) return KStatus::NoMem;
    if (host_charged() + fresh_host > limit) return KStatus::Again;
    for (const simkern::Pfn pfn : pfns) ++t.pins[pfn];
    t.live.push_back(pfns);
    return KStatus::Ok;
  }
  void uncharge(std::size_t i, std::size_t charge) {
    Tenant& t = tenants[i];
    for (const simkern::Pfn pfn : t.live[charge])
      if (--t.pins[pfn] == 0) t.pins.erase(pfn);
    t.live.erase(t.live.begin() + static_cast<std::ptrdiff_t>(charge));
  }
  /// Returns the frames the removal takes off the host count.
  std::uint32_t remove(std::size_t i) {
    const Tenant gone = tenants[i];
    tenants[i] = Tenant{};
    std::uint32_t freed = 0;
    for (const auto& [pfn, n] : gone.pins)
      if (!held_by_any(pfn)) ++freed;
    return freed;
  }

  GovernorConfig cfg;
  std::array<Tenant, 3> tenants;
};

TEST(PinGovernor, HostCountMatchesPerTenantModel) {
  GovernorConfig cfg;
  cfg.host_ceiling = 32;
  cfg.default_quota = 10;
  cfg.guaranteed_reserve = 8;
  constexpr std::uint32_t kFrames = 64;
  constexpr std::array<QosTier, 3> kTiers{
      QosTier::Guaranteed, QosTier::BestEffort, QosTier::BestEffort};
  constexpr std::array<std::uint32_t, 3> kQuotas{24, 12, 16};
  std::map<KStatus, std::uint32_t> results;
  std::uint64_t forced = 0;

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    GovBox box(cfg, kFrames);
    PinGovernor& gov = box.gov;
    auto& kern = box.node.kernel();
    const std::array<simkern::Pid, 3> pids{box.pid, kern.create_task("b"),
                                           kern.create_task("c")};
    GovModel model;
    model.cfg = cfg;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      gov.set_tenant(pids[i], kQuotas[i], kTiers[i]);
      model.tenants[i].known = true;
      model.tenants[i].tier = kTiers[i];
      model.tenants[i].quota = kQuotas[i];
    }
    Rng rng(seed);

    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const std::size_t i = rng.below(pids.size());
      GovModel::Tenant& mt = model.tenants[i];
      const std::uint64_t op = rng.below(20);
      if (op < 11) {
        // Charge: a fresh run of frames from a narrow window, so sets
        // overlap across tenants, or one of the tenant's own sets again.
        std::vector<simkern::Pfn> pfns;
        if (!mt.live.empty() && op < 3) {
          pfns = mt.live[rng.below(mt.live.size())];
        } else {
          const auto start = static_cast<simkern::Pfn>(rng.below(40));
          const auto len = static_cast<simkern::Pfn>(1 + rng.below(8));
          for (simkern::Pfn pfn = start; pfn < start + len; ++pfn)
            pfns.push_back(pfn);
        }
        const KStatus want = model.charge(i, pfns);
        ASSERT_EQ(gov.charge(pids[i], pfns), want);
        ++results[want];
      } else if (op < 18) {
        if (mt.live.empty()) continue;
        const std::size_t c = rng.below(mt.live.size());
        gov.uncharge(pids[i], mt.live[c]);
        model.uncharge(i, c);
      } else {
        const GovernorStats before = gov.stats();
        const bool had_charges = !mt.pins.empty();
        const bool known = mt.known;
        const std::uint32_t freed = model.remove(i);
        gov.remove_tenant(pids[i]);
        EXPECT_EQ(gov.stats().tenants_removed,
                  before.tenants_removed + (known ? 1 : 0));
        EXPECT_EQ(gov.stats().forced_tenant_removals,
                  before.forced_tenant_removals + (had_charges ? 1 : 0));
        EXPECT_EQ(gov.stats().forced_frames_uncharged,
                  before.forced_frames_uncharged + freed);
        forced += had_charges ? 1 : 0;
      }

      ASSERT_EQ(gov.total_charged(), model.host_charged());
      for (std::size_t t = 0; t < pids.size(); ++t) {
        EXPECT_EQ(gov.tenant_known(pids[t]), model.tenants[t].known);
        ASSERT_EQ(gov.tenant_charged(pids[t]), model.tenants[t].pins.size())
            << "tenant " << t;
      }
    }
  }
  // The seeds reach every admission outcome and the forced-removal path.
  EXPECT_GT(results[KStatus::Ok], 0u);
  EXPECT_GT(results[KStatus::NoMem], 0u);
  EXPECT_GT(results[KStatus::Again], 0u);
  EXPECT_GT(forced, 0u);
}

TEST(PinGovernor, UnchargeByTenantThatNeverChargedChangesNoCount) {
  GovBox box;
  const auto idle = box.node.kernel().create_task("idle");
  box.gov.set_tenant(idle, 16, QosTier::BestEffort);  // known, no array yet
  constexpr std::array<simkern::Pfn, 4> kPfns{10, 11, 12, 13};
  ASSERT_EQ(box.gov.charge(box.pid, kPfns), KStatus::Ok);
#ifdef NDEBUG
  const Nanos before = box.clock.now();
  box.gov.uncharge(idle, kPfns);
  EXPECT_EQ(box.clock.now() - before, 4 * box.costs.pin_account_frame)
      << "the per-frame accounting cost is still paid";
  EXPECT_EQ(box.gov.tenant_charged(idle), 0u);
  EXPECT_EQ(box.gov.tenant_charged(box.pid), 4u);
  EXPECT_EQ(box.gov.total_charged(), 4u);
#else
  EXPECT_DEATH(box.gov.uncharge(idle, kPfns), "uncharge of uncharged frame");
#endif
}

TEST(PinGovernor, TenantsSnapshotIsOrderedByPid) {
  GovBox box;
  auto& kern = box.node.kernel();
  const auto p2 = kern.create_task("b");
  const auto p3 = kern.create_task("c");
  box.gov.set_tenant(p3, 32, QosTier::Guaranteed);
  box.gov.set_tenant(box.pid, 16, QosTier::BestEffort);
  box.gov.set_tenant(p2, 8, QosTier::BestEffort);
  const auto snap = box.gov.tenants();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_LT(snap[0].pid, snap[1].pid);
  EXPECT_LT(snap[1].pid, snap[2].pid);
  EXPECT_EQ(snap[2].tier, QosTier::Guaranteed);
}

TEST(PinGovernor, InjectedAdmissionRaceRejectsWithAgain) {
  GovBox box;
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.add({.site = fault::FaultSite::PinAdmission,
            .action = fault::FaultAction::Fail,
            .max_triggers = 1});
  fault::FaultEngine engine(plan, box.clock);
  box.node.set_fault_engine(&engine);

  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle mh;
  EXPECT_EQ(box.reg(a, 4, mh), KStatus::Again);
  EXPECT_EQ(box.gov.stats().rejected_injected, 1u);
  EXPECT_EQ(box.gov.tenant_charged(box.pid), 0u);
  // The rule is exhausted: the retry goes through.
  ASSERT_TRUE(ok(box.reg(a, 4, mh)));
  EXPECT_EQ(engine.stats().injected(fault::FaultSite::PinAdmission), 1u);
}

TEST(PinGovernor, InjectedReclaimFailureReleasesNothing) {
  GovernorConfig cfg;
  cfg.lazy_batch = 64;
  GovBox box(cfg);
  fault::FaultPlan plan;
  plan.add({.site = fault::FaultSite::PinReclaim,
            .action = fault::FaultAction::Drop,
            .max_triggers = 1});
  fault::FaultEngine engine(plan, box.clock);
  box.node.set_fault_engine(&engine);

  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle mh;
  ASSERT_TRUE(ok(box.reg(a, 8, mh)));
  ASSERT_TRUE(ok(box.node.agent().deregister_mem(mh)));
  ASSERT_EQ(box.gov.lazy_queue_depth(), 1u);

  EXPECT_EQ(box.gov.on_memory_pressure(8), 0u) << "injected shrinker failure";
  EXPECT_EQ(box.gov.stats().reclaim_failures, 1u);
  EXPECT_EQ(box.gov.lazy_queue_depth(), 1u) << "queue untouched";
  // Next pass (rule exhausted) completes the deferred work.
  EXPECT_EQ(box.gov.on_memory_pressure(8), 8u);
  EXPECT_EQ(box.gov.lazy_queue_depth(), 0u);
}

/// The governor's `pinmgr.*` metrics from its node's registry, as
/// "name value" lines.
std::string pinmgr_metrics(GovBox& box) {
  obs::Snapshot snap = box.node.kernel().metrics().snapshot();
  std::erase_if(snap, [](const obs::Metric& m) {
    return !m.name.starts_with("pinmgr.");
  });
  return obs::to_proc_text(snap);
}

TEST(PinGovernor, ExportsAccounting) {
  GovBox box;
  box.gov.set_tenant(box.pid, 16, QosTier::Guaranteed);
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle mh;
  ASSERT_TRUE(ok(box.reg(a, 8, mh)));
  const std::string s = pinmgr_metrics(box);
  EXPECT_NE(s.find("pinmgr.total_charged 8\n"), std::string::npos) << s;
  EXPECT_NE(s.find("pinmgr.admitted 1\n"), std::string::npos) << s;
  EXPECT_NE(s.find("pinmgr.tenants 1\n"), std::string::npos) << s;
  const std::vector<TenantInfo> tenants = box.gov.tenants();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].pid, box.pid);
  EXPECT_EQ(tenants[0].tier, QosTier::Guaranteed);
  EXPECT_EQ(tenants[0].quota, 16u);
  EXPECT_EQ(tenants[0].charged, 8u);
}

// Two identical runs of a governed workload (registrations, rejections, lazy
// deregs, a pressure pass) must agree byte-for-byte in virtual time, in every
// exported pinmgr metric and in the per-tenant accounting.
struct GovernedRun {
  Nanos now = 0;
  std::string metrics;
  std::vector<TenantInfo> tenants_before_release;
  std::vector<TenantInfo> tenants;
};

GovernedRun governed_run() {
  GovernorConfig cfg;
  cfg.lazy_batch = 4;
  cfg.default_quota = 32;
  GovBox box(cfg);
  auto& agent = box.node.agent();
  const auto a = must_mmap(box.node.kernel(), box.pid, 64);
  std::vector<via::MemHandle> live;
  for (int i = 0; i < 12; ++i) {
    via::MemHandle mh;
    if (ok(box.reg(a + static_cast<std::uint64_t>(i) * 4 * kPageSize, 4, mh)))
      live.push_back(mh);
  }
  for (std::size_t i = 0; i + 1 < live.size(); i += 2)
    (void)agent.deregister_mem(live[i]);
  (void)box.gov.on_memory_pressure(16);
  GovernedRun run;
  run.tenants_before_release = box.gov.tenants();
  agent.release_tenant(box.pid);
  run.now = box.clock.now();
  run.metrics = pinmgr_metrics(box);
  run.tenants = box.gov.tenants();
  return run;
}

TEST(PinGovernor, SameWorkloadIsBitIdentical) {
  const GovernedRun r1 = governed_run();
  const GovernedRun r2 = governed_run();
  EXPECT_EQ(r1.now, r2.now);
  EXPECT_EQ(r1.metrics, r2.metrics);
  EXPECT_FALSE(r1.tenants_before_release.empty());
  EXPECT_EQ(r1.tenants_before_release, r2.tenants_before_release);
  EXPECT_EQ(r1.tenants, r2.tenants);
}

}  // namespace
}  // namespace vialock::pinmgr
