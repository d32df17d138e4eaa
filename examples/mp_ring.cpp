// mp_ring.cpp - token ring over the MPI-flavoured layer: nonblocking
// receives, tag matching, and an ANY_SOURCE collector, exercising the
// posted/unexpected matching machinery end to end. Exits 1 if the token
// or the reports come out wrong, or if a node still holds a pin once the
// communicator is gone.
//
//   ./build/examples/mp_ring
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "mp/comm.h"

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

int ring(via::Cluster& cluster, const std::vector<via::NodeId>& nodes) {
  constexpr int kLaps = 5;
  constexpr std::int32_t kTokenTag = 1;
  constexpr std::int32_t kReportTag = 2;

  mp::Comm comm(cluster, nodes);
  if (!ok(comm.init())) {
    std::puts("comm init failed");
    return 1;
  }

  // Pass an incrementing token around the ring kLaps times.
  std::uint64_t token = 0;
  if (!ok(comm.stage(0, 0, std::as_bytes(std::span{&token, 1})))) return 1;
  for (int lap = 0; lap < kLaps; ++lap) {
    for (mp::Rank r = 0; r < kRanks; ++r) {
      const mp::Rank next = (r + 1) % kRanks;
      // Receiver posts first (expected path), sender fires.
      const mp::ReqId rx = comm.irecv(next, static_cast<std::int32_t>(r),
                                      kTokenTag, 0, 64);
      if (!comm.wait(comm.isend(r, next, kTokenTag, 0, 8))) return 1;
      mp::MpStatus st;
      if (!comm.wait(rx, &st)) return 1;
      // Increment and restage at the receiver.
      std::uint64_t v = 0;
      if (!ok(comm.fetch(next, 0, std::as_writable_bytes(std::span{&v, 1}))))
        return 1;
      ++v;
      if (!ok(comm.stage(next, 0, std::as_bytes(std::span{&v, 1})))) return 1;
    }
  }
  std::uint64_t final_token = 0;
  if (!ok(comm.fetch(0, 0, std::as_writable_bytes(std::span{&final_token, 1}))))
    return 1;

  // Every rank reports its final token to rank 0, which collects with
  // ANY_SOURCE (messages arrive unexpected, in arbitrary rank order).
  for (mp::Rank r = 1; r < kRanks; ++r) {
    const std::uint64_t mine = 0xE0000 + r;
    if (!ok(comm.stage(r, 128, std::as_bytes(std::span{&mine, 1})))) return 1;
    if (!comm.wait(comm.isend(r, 0, kReportTag, 128, 8))) return 1;
  }
  int reports = 0;
  while (comm.iprobe(0, mp::kAnySource, kReportTag)) {
    mp::MpStatus st;
    if (!ok(comm.recv(0, mp::kAnySource, kReportTag, 256, 64, &st))) return 1;
    std::uint64_t v = 0;
    if (!ok(comm.fetch(0, 256, std::as_writable_bytes(std::span{&v, 1}))))
      return 1;
    std::printf("rank 0 collected report 0x%llx from rank %u\n",
                static_cast<unsigned long long>(v), st.source);
    ++reports;
  }

  const auto& st = comm.stats();
  std::printf("\nmp_ring OK: token value %llu after %d laps x %u hops "
              "(expected %d)\n",
              static_cast<unsigned long long>(final_token), kLaps, kRanks,
              kLaps * kRanks);
  std::printf("  reports collected : %d\n", reports);
  std::printf("  eager sends       : %llu (expected-path %llu, unexpected %llu)\n",
              static_cast<unsigned long long>(st.eager_sends),
              static_cast<unsigned long long>(st.expected_msgs),
              static_cast<unsigned long long>(st.unexpected_msgs));
  return final_token == kLaps * kRanks && reports == kRanks - 1 ? 0 : 1;
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
  return check_quiescent(cluster, ring(cluster, nodes));
}
