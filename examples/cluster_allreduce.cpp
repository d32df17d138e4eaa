// cluster_allreduce.cpp - a four-node iterative-solver skeleton: the kind of
// FEM/CFD message-passing workload the SFB 393 collection exists to serve.
// Each rank updates a local vector, the cluster allreduces the residual, and
// a broadcast ships updated coefficients - all over reliably locked VIA
// memory. Exits 1 if any rank's reduced vector diverges, or if a node still
// holds a pin once the communicator is gone.
//
//   ./build/examples/cluster_allreduce
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "mp/collectives.h"
#include "util/rng.h"

using namespace vialock;

namespace {

constexpr mp::Rank kRanks = 4;

/// 1 if any node still holds pins, TPT entries or governor charge (each
/// violation is printed to stderr), else `rc`.
int check_quiescent(via::Cluster& cluster, int rc) {
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    for (const std::string& v :
         cluster.node(static_cast<via::NodeId>(n)).quiescent()) {
      std::fprintf(stderr, "node %zu: %s\n", n, v.c_str());
      rc = 1;
    }
  }
  return rc;
}

int solve(via::Cluster& cluster, const std::vector<via::NodeId>& nodes) {
  constexpr std::uint32_t kLocal = 64;           // u64s per rank
  constexpr std::uint64_t kScratch = 32 * 1024;  // allreduce/barrier scratch

  mp::Comm::Config cfg;
  cfg.heap_bytes = 256 * 1024;
  mp::Comm comm(cluster, nodes, cfg);
  if (!ok(comm.init())) {
    std::puts("comm init failed");
    return 1;
  }

  Rng rng(11);
  std::vector<std::uint64_t> local(kLocal);

  for (int iter = 0; iter < 10; ++iter) {
    // Each rank computes a local contribution...
    for (mp::Rank r = 0; r < kRanks; ++r) {
      for (auto& v : local) v = rng.below(1000);
      if (!ok(comm.stage(r, 0, std::as_bytes(std::span{local})))) return 1;
    }
    // ...the residual vector is allreduced...
    if (!ok(mp::allreduce_sum(comm, 0, kLocal, kScratch))) return 1;
    // ...rank 0 "decides" and broadcasts an 8 KB coefficient update...
    if (!ok(mp::broadcast(comm, 0, 64 * 1024, 8 * 1024))) return 1;
    // ...and everyone synchronises before the next iteration.
    if (!ok(mp::barrier(comm, kScratch))) return 1;
  }

  // Sanity: all ranks hold the same reduced vector.
  std::vector<std::uint64_t> v0(kLocal);
  std::vector<std::uint64_t> vr(kLocal);
  if (!ok(comm.fetch(0, 0, std::as_writable_bytes(std::span{v0})))) return 1;
  for (mp::Rank r = 1; r < kRanks; ++r) {
    if (!ok(comm.fetch(r, 0, std::as_writable_bytes(std::span{vr})))) return 1;
    if (vr != v0) {
      std::printf("rank %u diverged!\n", r);
      return 1;
    }
  }

  const mp::CommStats& st = comm.stats();
  std::printf("cluster_allreduce OK: 10 iterations on %u ranks\n", kRanks);
  std::printf("  p2p messages : %llu (%llu eager, %llu rendezvous)\n",
              static_cast<unsigned long long>(st.eager_sends +
                                              st.rendezvous_sends),
              static_cast<unsigned long long>(st.eager_sends),
              static_cast<unsigned long long>(st.rendezvous_sends));
  std::printf("  virtual time : %.2f ms\n",
              static_cast<double>(cluster.clock().now()) / 1e6);
  return 0;
}

}  // namespace

int main() {
  via::Cluster cluster;
  std::vector<via::NodeId> nodes;
  for (mp::Rank r = 0; r < kRanks; ++r) {
    via::NodeSpec spec;
    spec.policy = via::PolicyKind::Kiobuf;
    nodes.push_back(cluster.add_node(spec));
  }
  return check_quiescent(cluster, solve(cluster, nodes));
}
