// bench_host_microbench - google-benchmark timings of the simulator itself
// (host wall-clock, not virtual time): how fast the substrate executes fault
// handling, registration, reclaim, transfers, host set-up, a telemetry
// sampler tick, and the svc tier's value checksum and fill.
// Useful for keeping the experiment binaries quick; unrelated to the
// paper's claims.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiments/pressure.h"
#include "fault/fault.h"
#include "msg/transport.h"
#include "obs/sampler.h"
#include "svc/kv_client.h"
#include "via/node.h"

namespace vialock {
namespace {

using simkern::kPageShift;
using simkern::kPageSize;

simkern::KernelConfig bench_kernel() {
  simkern::KernelConfig cfg;
  cfg.frames = 2048;
  cfg.swap_slots = 8192;
  return cfg;
}

void BM_DemandZeroFault(benchmark::State& state) {
  Clock clock;
  simkern::Kernel kern(bench_kernel(), clock);
  const auto pid = kern.create_task("t");
  const auto prot = simkern::VmFlag::Read | simkern::VmFlag::Write;
  std::uint64_t i = 0;
  auto addr = kern.sys_mmap_anon(pid, 1024 * kPageSize, prot);
  for (auto _ : state) {
    if (i == 1024) {
      // Recycle the region outside the timed loop cadence.
      state.PauseTiming();
      (void)kern.sys_munmap(pid, *addr, 1024 * kPageSize);
      addr = kern.sys_mmap_anon(pid, 1024 * kPageSize, prot);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(kern.touch(pid, *addr + (i++ << kPageShift), true));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandZeroFault);

void BM_KiobufRegisterDeregister(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  Clock clock;
  CostModel costs;
  via::NodeSpec spec;
  spec.kernel = bench_kernel();
  spec.policy = via::PolicyKind::Kiobuf;
  via::Node node(spec, clock, costs);
  auto& kern = node.kernel();
  const auto pid = kern.create_task("t");
  const auto addr = *kern.sys_mmap_anon(
      pid, pages * kPageSize, simkern::VmFlag::Read | simkern::VmFlag::Write);
  for (std::uint64_t p = 0; p < pages; ++p)
    (void)kern.touch(pid, addr + (p << kPageShift), true);
  const auto tag = node.agent().create_ptag(pid);
  for (auto _ : state) {
    via::MemHandle mh;
    benchmark::DoNotOptimize(
        node.agent().register_mem(pid, addr, pages * kPageSize, tag, mh));
    benchmark::DoNotOptimize(node.agent().deregister_mem(mh));
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_KiobufRegisterDeregister)->Arg(1)->Arg(16)->Arg(256);

void BM_EagerTransfer(benchmark::State& state) {
  const auto len = static_cast<std::uint32_t>(state.range(0));
  via::Cluster cluster;
  via::NodeSpec spec;
  spec.kernel = bench_kernel();
  spec.policy = via::PolicyKind::Kiobuf;
  const auto n0 = cluster.add_node(spec);
  const auto n1 = cluster.add_node(spec);
  msg::Channel::Config cfg;
  cfg.user_heap_bytes = 1ULL << 20;
  msg::Channel channel(cluster, n0, n1, cfg);
  if (!ok(channel.init())) state.SkipWithError("channel init failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        channel.transfer(msg::Protocol::Eager, 0, 0, len));
  }
  state.SetBytesProcessed(state.iterations() * len);
}
BENCHMARK(BM_EagerTransfer)->Arg(64)->Arg(4096);

// One 64-byte eager round trip per iteration, round-robin over N connected
// VI pairs, each with its own buffer slot: at N = 1024 every transfer finds
// its VIs' records, rings and slots cold, as a server's connections are.
void BM_ManyConnectionTransfer(benchmark::State& state) {
  constexpr std::uint32_t kMsg = 64;
  const auto pairs = static_cast<std::uint32_t>(state.range(0));
  via::Cluster cluster;
  via::NodeSpec spec;
  spec.kernel = bench_kernel();
  spec.nic.max_vis = pairs;
  const via::NodeId nodes[2] = {cluster.add_node(spec), cluster.add_node(spec)};
  struct Side {
    std::unique_ptr<via::Vipl> vipl;
    simkern::VAddr buf = 0;
    via::MemHandle mh;
    std::vector<via::ViId> vis;
  } sides[2];
  const std::uint64_t len = simkern::page_align_up(std::uint64_t{pairs} * kMsg);
  for (int s = 0; s < 2; ++s) {
    auto& kern = cluster.node(nodes[s]).kernel();
    const auto pid = kern.create_task("conn");
    sides[s].vipl =
        std::make_unique<via::Vipl>(cluster.node(nodes[s]).agent(), pid);
    const auto buf = kern.sys_mmap_anon(
        pid, len, simkern::VmFlag::Read | simkern::VmFlag::Write);
    if (!buf || !ok(sides[s].vipl->open()) ||
        !ok(sides[s].vipl->register_mem(*buf, len, sides[s].mh))) {
      state.SkipWithError("setup failed");
      return;
    }
    sides[s].buf = *buf;
    sides[s].vis.resize(pairs);
    for (via::ViId& vi : sides[s].vis) (void)sides[s].vipl->create_vi(vi);
  }
  for (std::uint32_t k = 0; k < pairs; ++k) {
    if (!ok(cluster.fabric().connect(nodes[0], sides[0].vis[k], nodes[1],
                                     sides[1].vis[k]))) {
      state.SkipWithError("connect failed");
      return;
    }
  }
  // One leg: post the receive at `to`, send from `from`, reap both.
  const auto leg = [&](Side& from, Side& to, std::uint32_t k) {
    const simkern::VAddr slot = std::uint64_t{k} * kMsg;
    (void)to.vipl->post_recv(to.vis[k], to.mh, to.buf + slot, kMsg);
    (void)from.vipl->post_send(from.vis[k], from.mh, from.buf + slot, kMsg);
    benchmark::DoNotOptimize(from.vipl->send_done(from.vis[k]));
    benchmark::DoNotOptimize(to.vipl->recv_done(to.vis[k]));
  };
  std::uint32_t k = 0;
  for (auto _ : state) {
    leg(sides[0], sides[1], k);
    leg(sides[1], sides[0], k);
    k = k + 1 == pairs ? 0 : k + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ManyConnectionTransfer)->Arg(1)->Arg(1024);

void BM_PressureCycle(benchmark::State& state) {
  for (auto _ : state) {
    Clock clock;
    simkern::Kernel kern(bench_kernel(), clock);
    const auto pr = experiments::apply_memory_pressure(kern, 1.2);
    benchmark::DoNotOptimize(pr.pages_touched);
  }
}
BENCHMARK(BM_PressureCycle)->Unit(benchmark::kMillisecond);

// Building one host with kv-server's shape (8,192 frames, 16,384 swap slots,
// 8,192 TPT entries, 1,024 VIs): the per-host set-up cost a scenario pays
// once per host before any traffic runs.
void BM_NodeSetup(benchmark::State& state) {
  Clock clock;
  CostModel costs;
  via::NodeSpec spec;
  spec.kernel.frames = 8192;
  spec.kernel.reserved_low = 64;
  spec.kernel.swap_slots = 16384;
  spec.nic.tpt_entries = 8192;
  spec.nic.max_vis = 1024;
  spec.policy = via::PolicyKind::Kiobuf;
  for (auto _ : state) {
    via::Node node(spec, clock, costs);
    benchmark::DoNotOptimize(&node);
  }
}
BENCHMARK(BM_NodeSetup)->Unit(benchmark::kMicrosecond);

// One sampler tick over a cluster-1m-sized fleet: 256 host registries, each
// with four owned histograms, four owned counters, five host-wide sources
// and six per-pid sources - 137 emissions per host, 35,072 per tick. Time
// per iteration is time per tick.
void BM_SamplerTick(benchmark::State& state) {
  constexpr int kHosts = 256;
  const std::vector<std::pair<std::string, std::size_t>> sources = {
      {"simkern", 20},          {"obs", 5},
      {"via.nic", 16},          {"via.agent", 16},
      {"pinmgr", 12},           {"core.regcache.p1", 10},
      {"core.regcache.p2", 10}, {"core.regcache.p3", 10},
      {"core.regcache.p4", 10}, {"msg.ch.p1.d2", 10},
      {"msg.ch.p3.d4", 10}};
  std::vector<std::string> stats;
  for (int i = 0; i < 20; ++i) stats.push_back("stat" + std::to_string(i));
  std::uint64_t tick = 0;

  std::vector<std::unique_ptr<obs::MetricRegistry>> regs;
  obs::Sampler::Config cfg;
  cfg.max_samples = 64;  // the ring's copies, not the walk, would dominate RSS
  obs::Sampler smp(std::move(cfg));
  std::size_t emissions = 0;
  for (std::uint64_t h = 0; h < kHosts; ++h) {
    auto& reg = *regs.emplace_back(std::make_unique<obs::MetricRegistry>());
    for (const char* name :
         {"simkern.vm.reclaim_ns", "simkern.vm.reclaim_freed_pages",
          "msg.ch.p1.d2.transfer_ns", "msg.ch.p3.d4.transfer_ns"}) {
      obs::Histogram& hist = reg.histogram(name);
      for (std::uint64_t x = 1; x < 1'000'000; x = x * 3 + h) hist.add(x);
    }
    for (const char* name : {"via.agent.ioctls", "via.nic.doorbells",
                             "core.pin.calls", "fault.injected_total"})
      reg.counter(name).inc(h);
    emissions += 8;
    for (const auto& [name, n] : sources) {
      reg.register_source(
          name, &reg, [&stats, &tick, n = n, h](obs::MetricSink& s) {
            for (std::size_t i = 0; i < n; ++i)
              s.counter(stats[i], tick * (i + 1) + h);
          });
      emissions += n;
    }
    smp.add_registry(&reg);
  }
  for (auto _ : state) {
    smp.sample(static_cast<Nanos>(++tick));
    benchmark::DoNotOptimize(smp.samples().back().metrics.data());
  }
  state.counters["emissions_per_tick"] = static_cast<double>(emissions);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(emissions));
}
BENCHMARK(BM_SamplerTick)->Unit(benchmark::kMicrosecond);

// The svc tier's per-byte host work: the end-to-end value checksum both
// sides compute, and the client's synthetic value fill.
void BM_Checksum32(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  svc::KvClient::fill_value(buf, 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.data());
    benchmark::DoNotOptimize(fault::checksum32(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Checksum32)->Arg(256)->Arg(4096);

void BM_FillValue(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  std::uint64_t key = 0;
  for (auto _ : state) {
    svc::KvClient::fill_value(buf, key++, 2);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FillValue)->Arg(4096);

}  // namespace
}  // namespace vialock

BENCHMARK_MAIN();
