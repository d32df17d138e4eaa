// collectives.h - collective operations over the matching layer.
//
// These are built the way real MPI implementations layer them: "a mapping
// of the collective operations, like Barrier or Broadcast, to point-to-point
// communication"
// (the multidevice paper's device-independent layer). They therefore work
// transparently across the multidevice routing - ranks on one node
// synchronise through shared memory, ranks apart through the fabric.
//
// Internal traffic uses reserved negative tags (user tags must be >= 0, as
// in MPI), so collectives never collide with application point-to-point.
#pragma once

#include <cstdint>

#include "mp/comm.h"

namespace vialock::mp {

/// Reserved internal tags (user tags are >= 0).
inline constexpr std::int32_t kBarrierTag = -100;
inline constexpr std::int32_t kBcastTag = -101;
inline constexpr std::int32_t kReduceTag = -102;
inline constexpr std::int32_t kGatherTag = -103;
inline constexpr std::int32_t kAlltoallTag = -104;

/// Dissemination barrier: ceil(log2 N) rounds of token exchanges.
/// `scratch_offset` names 16 bytes of per-rank heap used for the tokens.
[[nodiscard]] KStatus barrier(Comm& comm, std::uint64_t scratch_offset = 0);

/// Binomial-tree broadcast: after return every rank holds the root's `len`
/// bytes at heap `offset`.
[[nodiscard]] KStatus broadcast(Comm& comm, Rank root, std::uint64_t offset,
                                std::uint32_t len);

/// Binomial-tree reduction of `count` u64s at `offset` into the root's heap
/// (element-wise sum). `scratch_offset` must provide count*8 bytes.
[[nodiscard]] KStatus reduce_sum(Comm& comm, Rank root, std::uint64_t offset,
                                 std::uint32_t count,
                                 std::uint64_t scratch_offset);

/// reduce_sum to rank 0 + broadcast: every rank ends with the global sum.
[[nodiscard]] KStatus allreduce_sum(Comm& comm, std::uint64_t offset,
                                    std::uint32_t count,
                                    std::uint64_t scratch_offset);

/// Gather: each rank's `block` bytes at `offset` land at the root's
/// `offset + rank*block`.
[[nodiscard]] KStatus gather(Comm& comm, Rank root, std::uint64_t offset,
                             std::uint32_t block);

/// All-to-all personalised exchange: each rank holds N blocks of `block`
/// bytes at `offset`; block j of rank i ends up as block i of rank j.
/// Every rank's N blocks are first snapshot to `scratch_offset` (N*block
/// bytes, disjoint from the data), then one exchange per ordered pair ships
/// out of the snapshots. Block i of rank i never moves.
[[nodiscard]] KStatus alltoall(Comm& comm, std::uint64_t offset,
                               std::uint32_t block,
                               std::uint64_t scratch_offset);

}  // namespace vialock::mp
