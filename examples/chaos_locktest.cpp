// chaos_locktest.cpp - the paper's locktest, escalated: memory pressure AND
// injected faults at the same time, end to end through the message layer.
//
// Two acts, same fault plan, same seed, same traffic:
//
//   act 1  refcount policy (Berkeley/M-VIA lineage), raw delivery: the
//          swapper relocates the receiver's registered buffer while the
//          cached registration keeps DMA-ing through stale TPT entries, and
//          injected wire drops / DMA bit-flips go completely unnoticed -
//          transfers fail or deliver silently corrupted data.
//   act 2  kiobuf policy (the paper's proposal) + the reliable transport:
//          pinned pages cannot move, every frame is checksummed and acked,
//          drops are retransmitted - every transfer completes and verifies.
//
// Both acts run the same fault plan from the same seed, so the only knobs
// that change are the locking policy and the delivery mode; a replay of
// act 1 at the end proves the schedule and outcome reproduce exactly.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "experiments/pressure.h"
#include "fault/fault.h"
#include "msg/transport.h"
#include "util/rng.h"

using namespace vialock;

namespace {

constexpr std::uint64_t kSeed = 97;
constexpr int kRounds = 10;
constexpr std::uint32_t kLen = 64 * 1024;

fault::FaultPlan chaos_plan() {
  fault::FaultPlan plan;
  plan.seed = kSeed;
  plan.add({.site = fault::FaultSite::Wire,
            .action = fault::FaultAction::Drop,
            .probability = 0.05});
  plan.add({.site = fault::FaultSite::NicDma,
            .action = fault::FaultAction::Corrupt,
            .probability = 0.03});
  plan.add({.site = fault::FaultSite::SwapRead,
            .action = fault::FaultAction::Delay,
            .probability = 0.10,
            .delay = 500'000});
  return plan;
}

std::vector<std::byte> pattern(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(kLen);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

via::NodeSpec node_spec(via::PolicyKind policy) {
  via::NodeSpec spec;
  spec.kernel.frames = 4096;  // 16 MB node
  spec.kernel.swap_slots = 16384;
  spec.nic.tpt_entries = 8192;
  spec.policy = policy;
  return spec;
}

struct ActResult {
  int clean = 0;
  int corrupt = 0;
  int failed = 0;
  msg::ChannelStats stats;
  std::string schedule;
};

ActResult run_act(const char* label, via::PolicyKind policy, bool reliable) {
  via::Cluster cluster;
  fault::FaultEngine engine(chaos_plan(), cluster.clock());
  const auto n0 = cluster.add_node(node_spec(policy));
  const auto n1 = cluster.add_node(node_spec(policy));

  msg::Channel::Config cfg;
  cfg.user_heap_bytes = 2ULL << 20;
  cfg.reliability.enabled = reliable;
  msg::Channel ch(cluster, n0, n1, cfg);
  if (!ok(ch.init())) std::abort();
  cluster.inject_faults(&engine);  // armed after setup: registration and
                                   // connect never consume fault events

  // Arm the flight recorders: span recording on (it feeds the postmortem
  // view), the plan's seed stamped in, and a sink that writes the
  // self-contained FLIGHT_<label>.json the moment a terminal fault or an
  // invariant trip calls flight_dump(). Same seed -> byte-identical dump.
  const std::string flight_path = std::string("FLIGHT_") + label + ".json";
  for (const auto id : {n0, n1}) {
    simkern::Kernel& kern = cluster.node(id).kernel();
    kern.spans().enable(true);
    kern.flight().set_seed(kSeed);
    kern.flight().set_sink(
        [flight_path](std::string_view reason, const std::string& json) {
          std::ofstream out(flight_path);
          out << json;
          std::printf("  [flight] %s: wrote %s (%zu bytes)\n",
                      std::string(reason).c_str(), flight_path.c_str(),
                      json.size());
        });
  }

  ActResult res;
  std::vector<std::byte> out(kLen);
  for (int round = 0; round < kRounds; ++round) {
    // Rendezvous keeps the receiver's buffer registration cached across
    // rounds - precisely the window the locktest attacks.
    const auto payload = pattern(kSeed + round);
    if (!ok(ch.stage(0, payload))) std::abort();
    if (!ok(ch.transfer(msg::Protocol::Rendezvous, 0, 0, kLen))) {
      ++res.failed;
      // Terminal fault: the transfer gave up. Snapshot the sender's recent
      // spans, trace ring, and metrics for postmortem analysis.
      cluster.node(n0).kernel().flight_dump("transfer_failed");
      continue;
    }
    if (!ok(ch.fetch(0, out))) std::abort();
    if (out == payload) {
      ++res.clean;
    } else {
      ++res.corrupt;
      // Invariant trip: delivery "succeeded" but the data is wrong - the
      // silent-corruption case the paper's locking mechanism exists to
      // prevent. The receiver's flight dump shows what DMA'd where.
      cluster.node(n1).kernel().flight_dump("data_corrupted");
    }
    if (round == 2) {
      // Mid-run memory pressure on the receiver: an unrelated allocator
      // forces the swapper to look for victim pages.
      const auto pr = experiments::apply_memory_pressure(
          cluster.node(n1).kernel(), 1.2);
      std::printf("  [round %d] pressure: allocator dirtied %llu pages, "
                  "%llu swapped out\n",
                  round, static_cast<unsigned long long>(pr.pages_touched),
                  static_cast<unsigned long long>(
                      cluster.node(n1).kernel().stats().pages_swapped_out));
    }
  }
  res.stats = ch.stats();
  res.schedule = engine.schedule_string();

  // Cumulative injections per fault site (the engine is shared by the
  // fabric and both nodes).
  for (std::size_t i = 0; i < fault::kNumFaultSites; ++i) {
    const auto site = static_cast<fault::FaultSite>(i);
    if (const std::uint64_t n = engine.stats().injected(site))
      std::printf("  [faults] fault_injected_%s %llu\n",
                  std::string(fault::to_string(site)).c_str(),
                  static_cast<unsigned long long>(n));
  }
  return res;
}

void print_result(const char* label, const ActResult& r) {
  std::printf("%s: %d clean, %d CORRUPTED, %d failed "
              "(retries %llu, crc catches %llu, dedups %llu)\n",
              label, r.clean, r.corrupt, r.failed,
              static_cast<unsigned long long>(r.stats.retries),
              static_cast<unsigned long long>(r.stats.corruptions_detected),
              static_cast<unsigned long long>(r.stats.dup_frames_dropped));
}

}  // namespace

int main() {
  std::printf("chaos locktest: %d x %u KB rendezvous transfers under memory "
              "pressure + injected faults (seed %llu)\n\n",
              kRounds, kLen / 1024, static_cast<unsigned long long>(kSeed));

  std::printf("act 1: refcount policy, raw delivery\n");
  const ActResult bad =
      run_act("refcount_raw", via::PolicyKind::Refcount, /*reliable=*/false);
  print_result("act 1", bad);

  std::printf("\nact 2: kiobuf policy, reliable delivery\n");
  const ActResult good =
      run_act("kiobuf_reliable", via::PolicyKind::Kiobuf, /*reliable=*/true);
  print_result("act 2", good);

  // Replay act 1: the same seed must reproduce the identical fault schedule
  // and the identical outcome. (The two *acts* realise different schedules
  // even with one seed - different policies take different code paths - but
  // any single configuration replays exactly.)
  std::printf("\nreplaying act 1 with the same seed...\n");
  const ActResult replay = run_act("refcount_replay", via::PolicyKind::Refcount,
                                   /*reliable=*/false);
  const bool replayed = replay.schedule == bad.schedule &&
                        replay.clean == bad.clean &&
                        replay.corrupt == bad.corrupt &&
                        replay.failed == bad.failed;
  std::printf("replay byte-identical (schedule + outcome): %s\n",
              replayed ? "yes" : "NO");
  const bool contrast = replayed && (bad.corrupt + bad.failed) > 0 &&
                        good.clean == kRounds && good.corrupt == 0 &&
                        good.failed == 0;
  std::printf("verdict: %s\n",
              contrast
                  ? "refcount corrupts/loses data; kiobuf + reliable "
                    "transport completes every transfer intact"
                  : "UNEXPECTED - contrast not demonstrated");
  return contrast ? 0 : 1;
}
