// bench_e20_reliability - Experiment E20: the price of reliable delivery
// under injected faults.
//
// Sweeps the injected wire-drop rate (with a correlated DMA bit-flip rate)
// and measures, per protocol and per delivery policy:
//   unreliable - the raw VIA service: transfers fail outright on a drop and
//                deliver corrupted payloads silently on a bit-flip
//   reliable   - sequence numbers + acks + checksums + bounded retries
//                (src/fault + the msg::Channel reliability layer)
// Shape target: reliable mode completes everything and delivers zero silent
// corruptions at any surveyed rate, paying for it in retries and virtual
// time; unreliable mode keeps its latency flat but loses or corrupts an
// increasing fraction of transfers. Same seed => byte-identical output.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "msg/transport.h"
#include "util/table.h"

namespace vialock {
namespace {

using msg::Channel;
using msg::Protocol;

constexpr std::uint64_t kSeed = 2026;
constexpr int kTransfers = 100;

struct CellResult {
  int completed = 0;
  int silent_corruptions = 0;  ///< delivered but wrong payload
  Nanos elapsed = 0;
  std::uint64_t bytes_delivered = 0;
  msg::ChannelStats stats;
  std::string schedule;
};

fault::FaultPlan chaos_plan(double drop_rate) {
  fault::FaultPlan plan;
  plan.seed = kSeed;
  if (drop_rate > 0.0) {
    plan.add({.site = fault::FaultSite::Wire,
              .action = fault::FaultAction::Drop,
              .probability = drop_rate});
    plan.add({.site = fault::FaultSite::NicDma,
              .action = fault::FaultAction::Corrupt,
              .probability = drop_rate / 2});
  }
  return plan;
}

std::vector<std::byte> pattern(std::size_t n) {
  Rng rng(kSeed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

CellResult run_cell(Protocol proto, std::uint32_t len, double drop_rate,
                    bool reliable) {
  via::Cluster cluster;
  fault::FaultEngine engine(chaos_plan(drop_rate), cluster.clock());
  const auto n0 = cluster.add_node(bench::eval_node(via::PolicyKind::Kiobuf));
  const auto n1 = cluster.add_node(bench::eval_node(via::PolicyKind::Kiobuf));

  Channel::Config cfg;
  cfg.preregister_heaps = true;
  cfg.user_heap_bytes = 2ULL << 20;
  cfg.reliable = reliable;
  Channel ch(cluster, n0, n1, cfg);
  if (!ok(ch.init())) std::abort();
  // Arm after setup so registration/connect never consume fault events and
  // every cell sees the same schedule for the same rate.
  cluster.inject_faults(&engine);

  const auto payload = pattern(len);
  if (!ok(ch.stage(0, payload))) std::abort();

  CellResult res;
  std::vector<std::byte> out(len);
  const Nanos t0 = cluster.clock().now();
  for (int i = 0; i < kTransfers; ++i) {
    if (!ok(ch.transfer(proto, 0, 0, len))) continue;
    ++res.completed;
    res.bytes_delivered += len;
    if (!ok(ch.fetch(0, out))) std::abort();
    if (out != payload) ++res.silent_corruptions;
  }
  res.elapsed = cluster.clock().now() - t0;
  res.stats = ch.stats();
  res.schedule = engine.schedule_string();
  return res;
}

std::string sweep_table(Protocol proto, std::uint32_t len,
                        bench::JsonReport& report) {
  std::ostringstream os;
  Table t({"drop rate", "mode", "done", "silent-corrupt", "goodput",
           "avg latency", "retries", "timeouts", "crc-catch", "repairs"});
  for (const double rate : {0.0, 0.01, 0.05, 0.10, 0.20}) {
    for (const bool reliable : {false, true}) {
      const CellResult r = run_cell(proto, len, rate, reliable);
      t.row({std::to_string(rate).substr(0, 4), reliable ? "reliable" : "raw",
             std::to_string(r.completed) + "/" + std::to_string(kTransfers),
             std::to_string(r.silent_corruptions),
             r.bytes_delivered ? Table::rate(r.bytes_delivered, r.elapsed)
                               : std::string("-"),
             Table::nanos(r.elapsed / kTransfers),
             std::to_string(r.stats.retries),
             std::to_string(r.stats.send_timeouts),
             std::to_string(r.stats.corruptions_detected),
             std::to_string(r.stats.conn_repairs)});
    }
  }
  os << "--- " << to_string(proto) << " (" << Table::bytes(len) << " x "
     << kTransfers << ") ---\n";
  t.print(os);
  report.add_table(std::string(to_string(proto)), t);
  return os.str();
}

}  // namespace
}  // namespace vialock

int main(int argc, char** argv) {
  using namespace vialock;
  const bench::BenchFlags flags(argc, argv);
  std::cout << "E20: reliable delivery vs injected faults "
            << "(seed " << kSeed << ", deterministic)\n"
            << "raw = plain VIA service, reliable = seq/ack/checksum/retry\n\n";

  bench::JsonReport report("E20", "reliable delivery vs injected faults");
  report.param("seed", std::uint64_t{kSeed});
  std::cout << sweep_table(Protocol::Eager, 2048, report) << "\n";
  std::cout << sweep_table(Protocol::Rendezvous, 32 * 1024, report) << "\n";
  std::cout << sweep_table(Protocol::Preregistered, 32 * 1024, report) << "\n";

  // Determinism spot check: the same seed must reproduce the identical
  // fault schedule and the identical outcome, byte for byte.
  const CellResult a = run_cell(Protocol::Eager, 2048, 0.10, true);
  const CellResult b = run_cell(Protocol::Eager, 2048, 0.10, true);
  const bool same = a.schedule == b.schedule && a.elapsed == b.elapsed &&
                    a.completed == b.completed &&
                    a.stats.retries == b.stats.retries;
  std::cout << "determinism check (eager, rate 0.10, reliable, two runs): "
            << (same ? "PASS" : "FAIL") << " - " << a.schedule.size()
            << "-byte schedule, " << a.stats.retries << " retries, "
            << Table::nanos(a.elapsed) << " elapsed\n";
  report.metric("determinism", same ? std::string("PASS") : std::string("FAIL"));
  report.write_if(flags);
  return same ? report.compare_if(flags) : 1;
}
