// zero_copy_pipeline.cpp - a realistic messaging workload over the Channel
// API: an MPI-style halo-exchange-ish pipeline that sends a mix of small
// control messages and large data blocks, letting the protocol switch and
// the registration cache do their jobs - the scenario the paper's
// introduction motivates ("the buffers must be registered on the fly").
// Exits 1 if a block arrives damaged, or if a node still holds a pin once
// the channel is gone.
//
//   ./build/examples/zero_copy_pipeline
#include <cstdio>
#include <string>
#include <vector>

#include "msg/transport.h"
#include "util/rng.h"

using namespace vialock;

namespace {

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

int pipeline(via::Cluster& cluster, via::NodeId n0, via::NodeId n1) {
  msg::Channel::Config cfg;
  cfg.user_heap_bytes = 4ULL << 20;
  msg::Channel channel(cluster, n0, n1, cfg);
  if (!ok(channel.init())) {
    std::puts("channel init failed");
    return 1;
  }

  // Simulated iterative solver: per iteration one 256 B "residual" control
  // message plus two 128 KB boundary blocks, reusing the same halo buffers.
  constexpr int kIterations = 25;
  constexpr std::uint32_t kHalo = 128 * 1024;
  Rng rng(7);
  std::vector<std::byte> halo(kHalo);
  std::vector<std::byte> out(kHalo);

  std::uint64_t checked = 0;
  for (int it = 0; it < kIterations; ++it) {
    for (auto& b : halo) b = static_cast<std::byte>(rng.next() & 0xFF);

    // Control message (eager path).
    const std::uint64_t residual = rng.next();
    if (!ok(channel.stage(0, std::as_bytes(std::span{&residual, 1})))) return 1;
    if (!ok(channel.transfer_auto(0, 0, sizeof residual))) return 1;

    // Two halo blocks (rendezvous zero-copy path), alternating buffers.
    for (int half = 0; half < 2; ++half) {
      const std::uint64_t off = 64 * 1024 + half * kHalo;
      if (!ok(channel.stage(off, halo))) return 1;
      if (!ok(channel.transfer_auto(off, off, kHalo))) return 1;
      if (!ok(channel.fetch(off, out))) return 1;
      if (out != halo) {
        std::printf("iteration %d: data mismatch!\n", it);
        return 1;
      }
      ++checked;
    }
  }

  const auto& st = channel.stats();
  const auto& sc = channel.sender_cache_stats();
  std::printf("pipeline OK: %d iterations, %llu blocks verified\n",
              kIterations, static_cast<unsigned long long>(checked));
  std::printf("  eager msgs        : %llu\n",
              static_cast<unsigned long long>(st.eager_msgs));
  std::printf("  rendezvous msgs   : %llu\n",
              static_cast<unsigned long long>(st.rendezvous_msgs));
  std::printf("  bytes moved       : %llu\n",
              static_cast<unsigned long long>(st.bytes_moved));
  std::printf("  sender reg cache  : %llu hits / %llu misses "
              "(registrations amortised away)\n",
              static_cast<unsigned long long>(sc.hits),
              static_cast<unsigned long long>(sc.misses));
  std::printf("  virtual time      : %.2f ms\n",
              static_cast<double>(cluster.clock().now()) / 1e6);
  return 0;
}

}  // namespace

int main() {
  via::Cluster cluster;
  via::NodeSpec spec;
  spec.kernel.frames = 4096;
  spec.nic.tpt_entries = 4096;
  spec.policy = via::PolicyKind::Kiobuf;
  const auto n0 = cluster.add_node(spec);
  const auto n1 = cluster.add_node(spec);
  return check_quiescent(cluster, pipeline(cluster, n0, n1));
}
