// bench_e12_collectives - Experiment E12 (extension): collective operations
// over the VIA substrate.
//
// The paper family lists collectives as the next work item ("VIA as well as
// SCI offer excellent features for the implementation of e.g. a barrier or
// a broadcast"). This bench reports virtual cost vs. rank count for
// barrier / broadcast / allreduce / alltoall, and the message counts that
// show the binomial algorithms doing their O(log N) work.
//
// Since E23 the measurement itself lives in the scenario engine: this
// driver loads examples/scenarios/e12-collectives.spec and sweeps `hosts`
// over it. The collectives are mp/collectives over an mp::Comm.
#include <cstdlib>
#include <iostream>

#include "bench_util.h"
#include "util/table.h"

namespace vialock {
namespace {

scenario::ScenarioReport measure(std::uint32_t ranks) {
  const auto engine = bench::run_or_die(bench::load_spec(
      "e12-collectives.spec", {{"hosts", std::to_string(ranks)}}));
  if (!engine->report().invariants_ok) std::abort();
  return engine->report();
}

}  // namespace
}  // namespace vialock

int main(int argc, char** argv) {
  using namespace vialock;
  std::cout << "E12 (extension): collective operations vs. rank count\n"
            << "(64 KB broadcast, 2 KB allreduce vectors, 8 KB alltoall "
            << "blocks;\nsequentialised rounds - virtual times are upper "
            << "bounds)\n\n";
  const bench::BenchFlags flags(argc, argv);
  Table table({"ranks", "barrier", "broadcast 64KB", "bcast msgs",
               "allreduce 2KB", "alltoall 8KB"});
  for (const std::uint32_t ranks : {2u, 3u, 4u, 6u, 8u}) {
    const scenario::ScenarioReport r = measure(ranks);
    table.row({Table::num(std::uint64_t{ranks}), Table::nanos(r.barrier_ns),
               Table::nanos(r.broadcast_ns), Table::num(r.bcast_msgs),
               Table::nanos(r.allreduce_ns), Table::nanos(r.alltoall_ns)});
  }
  table.print();
  bench::JsonReport report("E12", "collective operations vs rank count");
  report.add_table("collectives", table);
  report.write_if(flags);
  std::cout << "\nShape: broadcast ships N-1 messages over a binomial tree\n"
               "(log-depth); alltoall grows as N(N-1) blocks; barrier as\n"
               "N*ceil(log2 N) tokens.\n";
  return report.compare_if(flags);
}
