// bench_e21_pin_governor - Experiment E21: the host-wide pin governor.
//
// Three scenarios around src/pinmgr/ (DESIGN.md section on pinmgr):
//
//   1. Lazy deregistration: deregs append to a user-level queue and one
//      batched kernel entry submits them, so the fixed per-ioctl cost
//      amortises. Sweep batch depth and report virtual ns per dereg.
//   2. Multi-tenant registration under memory pressure: the ungoverned
//      baseline (every tenant statically pins its whole buffer pool, the
//      pre-governor VIA style) runs the host into its pin budget and
//      transfers fail with EAGAIN; the governed run (per-tenant quota +
//      registration cache + cooperative reclaim) completes every transfer
//      and keeps the TPT truthful.
//   3. QoS admission: without a guaranteed reserve a best-effort tenant
//      starves a guaranteed one; with the reserve - or with idle cached
//      registrations the governor can reclaim - the guaranteed tenant is
//      admitted and the best-effort one fails cleanly instead.
//
// All times are virtual-clock nanoseconds; same-seed runs are bit-identical
// (checked at the end by replaying scenario 2 and comparing the node's full
// metric snapshot plus the governor's per-tenant accounting).
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/reg_cache.h"
#include "experiments/pressure.h"
#include "util/table.h"
#include "via/vipl.h"

namespace vialock {
namespace {

using simkern::kPageSize;
using simkern::Pid;
using simkern::VAddr;

constexpr auto kRw = simkern::VmFlag::Read | simkern::VmFlag::Write;

std::uint64_t stamp(Pid pid, std::uint32_t buffer) {
  return 0xE21000000000000ULL ^ (static_cast<std::uint64_t>(pid) << 32) ^
         buffer * 0x9E3779B97F4A7C15ULL;
}

// --- scenario 1: lazy-dereg amortisation -------------------------------------

void lazy_dereg_sweep(bench::JsonReport& report) {
  constexpr int kCycles = 256;
  constexpr std::uint64_t kPages = 8;
  std::cout << "\n=== E21.1 lazy deregistration: " << kCycles
            << " register/deregister cycles of " << kPages
            << "-page regions ===\n";
  Table table({"dereg mode", "deregs", "dereg syscalls", "dereg ns total",
               "ns/dereg", "vs eager"});
  double eager_ns = 0;
  for (const std::uint32_t batch : {0u, 8u, 32u, 128u}) {
    Clock clock;
    CostModel costs;
    via::Node node(bench::eval_node(via::PolicyKind::Kiobuf), clock, costs);
    auto& gov = node.enable_governor({.lazy_batch = batch});
    auto& kern = node.kernel();
    const Pid pid = kern.create_task("app");
    gov.set_tenant(pid, /*quota_pages=*/2048, pinmgr::QosTier::Guaranteed);
    const via::ProtectionTag tag = node.agent().create_ptag(pid);
    const VAddr base =
        *kern.sys_mmap_anon(pid, kCycles * kPages * kPageSize, kRw);

    Nanos dereg_ns = 0;
    std::uint64_t dereg_sys = 0;
    for (int i = 0; i < kCycles; ++i) {
      via::MemHandle mh;
      if (!ok(node.agent().register_mem(
              pid, base + static_cast<std::uint64_t>(i) * kPages * kPageSize,
              kPages * kPageSize, tag, mh))) {
        std::cout << "  register failed at cycle " << i << "\n";
        return;
      }
      const Nanos t0 = clock.now();
      const std::uint64_t s0 = kern.stats().syscalls;
      (void)node.agent().deregister_mem(mh);
      dereg_ns += clock.now() - t0;
      dereg_sys += kern.stats().syscalls - s0;
    }
    {
      // End-of-phase epoch barrier: the tail of the queue drains here and its
      // cost belongs to the dereg bill.
      const Nanos t0 = clock.now();
      const std::uint64_t s0 = kern.stats().syscalls;
      (void)gov.flush();
      dereg_ns += clock.now() - t0;
      dereg_sys += kern.stats().syscalls - s0;
    }
    const double per = static_cast<double>(dereg_ns) / kCycles;
    if (batch == 0) eager_ns = per;
    const std::string mode =
        batch == 0 ? "eager" : "lazy batch=" + std::to_string(batch);
    table.row({mode, Table::num(std::uint64_t{kCycles}),
               Table::num(dereg_sys),
               Table::num(static_cast<std::uint64_t>(dereg_ns)),
               Table::fp(per, 1),
               batch == 0 ? "1.00x" : Table::fp(eager_ns / per, 2) + "x"});
    if (batch == 128)
      report.metric("lazy128_ns_per_dereg", per)
          .metric("lazy128_speedup", eager_ns / per);
    if (batch == 0) report.metric("eager_ns_per_dereg", per);
  }
  table.print();
  report.add_table("lazy_dereg", table);
}

// --- scenario 2: multi-tenant transfers under pressure -----------------------

/// A small host: 4 MB RAM, pin budget 3/4 of it. Four tenants together want
/// twice the pin budget, so an ungoverned host cannot hold everything.
via::NodeSpec pressure_node() {
  via::NodeSpec spec;
  spec.kernel.frames = 1024;
  spec.kernel.reserved_low = 16;
  spec.kernel.swap_slots = 8192;
  spec.kernel.free_pages_min = 16;
  spec.kernel.swap_cluster = 32;
  spec.nic.tpt_entries = 8192;
  spec.policy = via::PolicyKind::Kiobuf;
  return spec;
}

constexpr int kTenants = 4;
constexpr std::uint32_t kBuffers = 48;  ///< distinct buffers per tenant
constexpr std::uint64_t kBufPages = 8;
constexpr int kRounds = 3;
constexpr std::uint32_t kQuota = 128;  ///< governed per-tenant quota (pages)

struct PressureRunResult {
  std::uint64_t transfers = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t data_ok = 0;
  std::uint32_t pinned_peak = 0;
  std::uint64_t swapped = 0;          ///< swap-outs during the allocator run
  std::uint64_t reclaim_pages = 0;    ///< pages the governor reclaimed
  std::uint64_t tpt_stale = 0;        ///< live TPT entries vs page tables
  bool clean_exit = false;            ///< nothing pinned/charged at the end
  Nanos elapsed = 0;
  std::string metrics;                ///< final metric snapshot, as text
  std::vector<pinmgr::TenantInfo> tenants;  ///< governed runs: final tenants
};

struct Tenant {
  Pid pid = simkern::kInvalidPid;
  VAddr base = 0;
  std::unique_ptr<via::Vipl> vipl;                 // governed
  std::unique_ptr<core::RegistrationCache> cache;  // governed
  via::ProtectionTag tag = via::kInvalidTag;       // ungoverned
  std::vector<via::MemHandle> statics;             // ungoverned: pin-and-hold
};

/// Count live registrations whose TPT frames no longer match the page tables.
std::uint64_t stale_pages(via::Node& node, Pid pid, const via::MemHandle& mh) {
  const via::LockHandle* lh = node.agent().lock_handle(mh.id);
  if (lh == nullptr) return 0;
  std::uint64_t stale = 0;
  for (std::uint32_t p = 0; p < lh->pfns.size(); ++p) {
    const auto pfn = node.kernel().resolve(
        pid, mh.region_start() + static_cast<std::uint64_t>(p) * kPageSize);
    if (!pfn || *pfn != lh->pfns[p]) ++stale;
  }
  return stale;
}

PressureRunResult run_tenants(bool governed) {
  Clock clock;
  CostModel costs;
  via::Node node(pressure_node(), clock, costs);
  auto& kern = node.kernel();
  PressureRunResult r;

  pinmgr::PinGovernor* gov = nullptr;
  if (governed) {
    gov = &node.enable_governor({.lazy_batch = 16});
  }

  std::vector<Tenant> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    Tenant& ten = tenants[t];
    ten.pid = kern.create_task("tenant" + std::to_string(t));
    ten.base = *kern.sys_mmap_anon(ten.pid, kBuffers * kBufPages * kPageSize,
                                   kRw);
    for (std::uint32_t b = 0; b < kBuffers; ++b) {
      const std::uint64_t v = stamp(ten.pid, b);
      (void)kern.write_user(ten.pid, ten.base + b * kBufPages * kPageSize,
                            std::as_bytes(std::span{&v, 1}));
    }
    if (governed) {
      gov->set_tenant(ten.pid, kQuota, pinmgr::QosTier::Guaranteed);
      ten.vipl = std::make_unique<via::Vipl>(node.agent(), ten.pid);
      (void)ten.vipl->open();
      core::RegistrationCache::Config ccfg;
      ccfg.governor = gov;
      ten.cache =
          std::make_unique<core::RegistrationCache>(*ten.vipl, ccfg);
    } else {
      ten.tag = node.agent().create_ptag(ten.pid);
      ten.statics.resize(kBuffers);
    }
  }

  // One transfer: pin the buffer (cache acquire / static handle), have the
  // NIC read its stamp through the TPT, release.
  const auto transfer = [&](Tenant& ten, std::uint32_t b) {
    ++r.transfers;
    const VAddr addr = ten.base + b * kBufPages * kPageSize;
    via::MemHandle mh;
    if (governed) {
      if (!ok(ten.cache->acquire(addr, kBufPages * kPageSize, mh))) {
        ++r.failed;
        return;
      }
    } else {
      if (!ten.statics[b].valid() &&
          !ok(node.agent().register_mem(ten.pid, addr, kBufPages * kPageSize,
                                        ten.tag, ten.statics[b]))) {
        ++r.failed;
        return;
      }
      mh = ten.statics[b];
    }
    std::uint64_t seen = 0;
    const KStatus st = node.nic().dma_read_local(
        mh, addr, std::as_writable_bytes(std::span{&seen, 1}));
    if (ok(st)) {
      ++r.completed;
      if (seen == stamp(ten.pid, b)) ++r.data_ok;
    } else {
      ++r.failed;
    }
    if (governed) ten.cache->release(mh);
    if (kern.pinned_frames() > r.pinned_peak)
      r.pinned_peak = kern.pinned_frames();
  };

  for (int round = 0; round < kRounds; ++round) {
    for (std::uint32_t b = 0; b < kBuffers; ++b)
      for (auto& ten : tenants) transfer(ten, b);
    if (round == 0) {
      // The paper's allocator process dirties 1.2x RAM between rounds.
      const auto pr = experiments::apply_memory_pressure(kern, 1.2);
      r.swapped = pr.swap_outs;
      if (pr.allocator_pid != simkern::kInvalidPid)
        kern.exit_task(pr.allocator_pid);
    }
  }

  // TPT truth: every live registration must still translate to the frames
  // the page tables hold (kiobuf pinning guarantees it; count violations).
  for (auto& ten : tenants) {
    if (governed) {
      // The cache's idle entries are the live registrations.
      continue;  // checked per-transfer by data_ok; spot-check below
    }
    for (std::uint32_t b = 0; b < kBuffers; ++b)
      if (ten.statics[b].valid())
        r.tpt_stale += stale_pages(node, ten.pid, ten.statics[b]);
  }
  if (governed) {
    // Spot-check through a fresh acquire per tenant (hits the cache).
    for (auto& ten : tenants) {
      via::MemHandle mh;
      if (ok(ten.cache->acquire(ten.base, kBufPages * kPageSize, mh))) {
        r.tpt_stale += stale_pages(node, ten.pid, mh);
        ten.cache->release(mh);
      }
    }
  }

  // Tenant teardown: everything must come back.
  for (auto& ten : tenants) {
    if (governed) {
      ten.cache.reset();
      node.agent().release_tenant(ten.pid);
    } else {
      for (auto& mh : ten.statics)
        if (mh.valid()) (void)node.agent().deregister_mem(mh);
    }
  }
  if (gov != nullptr) {
    r.reclaim_pages = gov->stats().reclaim_pages;
    r.tenants = gov->tenants();
  }
  r.clean_exit = node.quiescent().empty() && kern.self_check().empty();
  r.metrics = obs::to_proc_text(kern.metrics().snapshot());
  r.elapsed = clock.now();
  return r;
}

void multi_tenant_table(bench::JsonReport& report,
                        PressureRunResult& governed_out) {
  std::cout << "\n=== E21.2 four tenants, 2x the pin budget, allocator "
               "pressure between rounds ===\n";
  Table table({"mode", "transfers", "completed", "failed", "data intact",
               "pinned peak", "swapped", "reclaimed", "TPT stale",
               "clean exit"});
  const PressureRunResult base = run_tenants(/*governed=*/false);
  const PressureRunResult gov = run_tenants(/*governed=*/true);
  governed_out = gov;
  for (const auto* r : {&base, &gov}) {
    table.row({r == &base ? "ungoverned (static pin-and-hold)"
                          : "governed (quota + cache + reclaim)",
               Table::num(r->transfers), Table::num(r->completed),
               Table::num(r->failed), Table::num(r->data_ok),
               Table::num(std::uint64_t{r->pinned_peak}),
               Table::num(r->swapped), Table::num(r->reclaim_pages),
               Table::num(r->tpt_stale), bench::yesno(r->clean_exit)});
  }
  table.print();
  report.add_table("multi_tenant", table);
  report.metric("baseline_failed_transfers", base.failed)
      .metric("governed_failed_transfers", gov.failed)
      .metric("governed_completed_transfers", gov.completed)
      .metric("governed_reclaim_pages", gov.reclaim_pages);
}

// --- scenario 3: QoS admission ----------------------------------------------

void qos_table(bench::JsonReport& report) {
  std::cout << "\n=== E21.3 QoS admission: 64-page ceiling, best-effort vs "
               "guaranteed ===\n";
  Table table({"configuration", "best-effort admitted",
               "guaranteed 24-page request", "reclaimed"});
  struct Row {
    std::string name;
    std::uint32_t reserve;
    bool idle_cache;  ///< best-effort pins sit idle in a RegistrationCache
  };
  for (const Row& row :
       {Row{"no reserve, pins held", 0, false},
        Row{"24-page guaranteed reserve", 24, false},
        Row{"no reserve, pins idle in cache", 0, true}}) {
    Clock clock;
    CostModel costs;
    via::Node node(bench::eval_node(via::PolicyKind::Kiobuf), clock, costs);
    auto& gov = node.enable_governor(
        {.host_ceiling = 64, .guaranteed_reserve = row.reserve});
    auto& kern = node.kernel();

    const Pid be = kern.create_task("best-effort");
    gov.set_tenant(be, 1024, pinmgr::QosTier::BestEffort);
    const VAddr be_base = *kern.sys_mmap_anon(be, 64 * kPageSize, kRw);
    via::Vipl be_vipl(node.agent(), be);
    (void)be_vipl.open();
    core::RegistrationCache::Config ccfg;
    ccfg.governor = &gov;
    std::optional<core::RegistrationCache> be_cache;
    if (row.idle_cache) be_cache.emplace(be_vipl, ccfg);

    // The best-effort tenant grabs 8-page chunks until admission fails.
    std::uint32_t be_admitted = 0;
    for (std::uint32_t c = 0; c < 8; ++c) {
      via::MemHandle mh;
      KStatus st;
      if (row.idle_cache) {
        st = be_cache->acquire(be_base + c * 8 * kPageSize, 8 * kPageSize, mh);
        if (ok(st)) be_cache->release(mh);  // idle but still pinned
      } else {
        st = be_vipl.register_mem(be_base + c * 8 * kPageSize, 8 * kPageSize,
                                  mh);
      }
      if (!ok(st)) break;
      be_admitted += 8;
    }

    const Pid g = kern.create_task("guaranteed");
    gov.set_tenant(g, 1024, pinmgr::QosTier::Guaranteed);
    const VAddr g_base = *kern.sys_mmap_anon(g, 24 * kPageSize, kRw);
    const via::ProtectionTag g_tag = node.agent().create_ptag(g);
    via::MemHandle g_mh;
    const KStatus g_st = node.agent().register_mem(
        g, g_base, 24 * kPageSize, g_tag, g_mh);

    table.row({row.name, Table::num(std::uint64_t{be_admitted}) + " pages",
               ok(g_st) ? "ADMITTED" : std::string(to_string(g_st)),
               Table::num(gov.stats().reclaim_pages)});
    if (ok(g_st)) (void)node.agent().deregister_mem(g_mh);
    be_cache.reset();
    node.agent().release_tenant(be);
    node.agent().release_tenant(g);
  }
  table.print();
  report.add_table("qos", table);
}

}  // namespace
}  // namespace vialock

int main(int argc, char** argv) {
  const vialock::bench::BenchFlags flags(argc, argv);
  std::cout << "E21: the pinned-memory governor (src/pinmgr/)\n"
            << "Per-tenant quotas + QoS admission + lazy deregistration +\n"
            << "cooperative reclaim, vs the ungoverned pin-and-hold baseline.\n";
  vialock::bench::JsonReport report(
      "E21", "pin governor: quotas, lazy dereg, cooperative reclaim");
  report.param("tenants", std::uint64_t{vialock::kTenants})
      .param("buffers_per_tenant", std::uint64_t{vialock::kBuffers})
      .param("buffer_pages", std::uint64_t{vialock::kBufPages})
      .param("governed_quota_pages", std::uint64_t{vialock::kQuota});

  vialock::lazy_dereg_sweep(report);
  vialock::PressureRunResult governed;
  vialock::multi_tenant_table(report, governed);
  vialock::qos_table(report);

  // Determinism: replay the governed multi-tenant run and require the virtual
  // clock, every metric of the node and the per-tenant accounting to be
  // bit-identical.
  const vialock::PressureRunResult replay =
      vialock::run_tenants(/*governed=*/true);
  const bool deterministic = replay.elapsed == governed.elapsed &&
                             replay.metrics == governed.metrics &&
                             replay.tenants == governed.tenants;
  std::cout << "\ndeterminism (replayed governed run): "
            << (deterministic ? "bit-identical" : "DIVERGED") << "\n";
  report.metric("deterministic", deterministic ? "yes" : "NO");
  report.write_if(flags);
  return deterministic ? report.compare_if(flags) : 1;
}
