// descriptor.h - VIA work-queue descriptors.
//
// "VIA communication is completely based on explicit descriptor processing"
// (companion paper in the same collection): a send/receive needs a descriptor
// on each side; RDMA needs one at the active node only. Descriptors carry
// virtual addresses qualified by memory handles, and a handle is the
// region's 32-bit TPT base: the NIC resolves it from its own region table
// and validates every page against the TPT when the descriptor is processed.
// A descriptor is 56 bytes and trivially copyable, so a work or completion
// ring slot is one plain copy that never reads the slot it overwrites.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "simkern/types.h"
#include "via/memory_handle.h"

namespace vialock::via {

using ViId = std::uint32_t;
inline constexpr ViId kInvalidVi = static_cast<ViId>(-1);

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

enum class DescOp : std::uint8_t { Send, Recv, RdmaWrite, RdmaRead };

enum class DescStatus : std::uint8_t {
  Pending,
  Done,
  ErrProtection,   ///< TPT tag / validity / RDMA-enable check failed
  ErrNoRecvDesc,   ///< receiver had no posted descriptor (connection broken)
  ErrLength,       ///< receive buffer smaller than the incoming message
  ErrDisconnected, ///< VI not connected
};

[[nodiscard]] constexpr std::string_view to_string(DescStatus s) {
  switch (s) {
    case DescStatus::Pending: return "PENDING";
    case DescStatus::Done: return "DONE";
    case DescStatus::ErrProtection: return "ERR_PROTECTION";
    case DescStatus::ErrNoRecvDesc: return "ERR_NO_RECV_DESC";
    case DescStatus::ErrLength: return "ERR_LENGTH";
    case DescStatus::ErrDisconnected: return "ERR_DISCONNECTED";
  }
  return "ERR_?";
}

/// One piece of memory a descriptor names: a region's handle (its TPT base,
/// MemHandle::tpt_base), a length and a virtual address inside the region.
struct DataSegment {
  TptIndex handle = kInvalidTptIndex;
  std::uint32_t length = 0;
  simkern::VAddr addr = 0;

  DataSegment() = default;
  DataSegment(const MemHandle& mh, simkern::VAddr at, std::uint32_t len)
      : handle(mh.tpt_base), length(len), addr(at) {}
};
static_assert(sizeof(DataSegment) == 16);

struct RemoteSegment {
  TptIndex handle = kInvalidTptIndex;  ///< the peer's region, communicated
                                       ///< out of band
  simkern::VAddr addr = 0;

  RemoteSegment() = default;
  RemoteSegment(const MemHandle& mh, simkern::VAddr at)
      : handle(mh.tpt_base), addr(at) {}
};

struct Descriptor {
  /// VIA descriptors carry a segment count; four is a typical NIC limit.
  static constexpr std::size_t kMaxSegments = 4;

  std::uint64_t cookie = 0;  ///< caller-chosen identifier, returned on poll
  /// The first segment. Segments 2..kMaxSegments travel beside the
  /// descriptor (Nic::post_send / post_recv), never inside it.
  DataSegment local;
  RemoteSegment remote;  ///< RDMA ops only
  std::uint32_t immediate = 0;
  std::uint32_t transferred = 0;  ///< completion: bytes moved
  /// Bytes over every segment and the segment count; the NIC stamps both
  /// when the descriptor is posted.
  std::uint32_t total_bytes = 0;
  std::uint8_t segment_count = 1;
  DescOp op = DescOp::Send;
  DescStatus status = DescStatus::Pending;  ///< completion, filled by the NIC
  bool has_immediate = false;

  [[nodiscard]] bool done_ok() const { return status == DescStatus::Done; }
  [[nodiscard]] std::size_t num_segments() const { return segment_count; }
  [[nodiscard]] std::uint64_t total_length() const { return total_bytes; }
};
static_assert(sizeof(Descriptor) <= 64);
static_assert(std::is_trivially_copyable_v<Descriptor>);

/// Segments 2..kMaxSegments of one posted receive, held in its VI's side
/// ring until the receive is consumed.
using SegmentTail = std::array<DataSegment, Descriptor::kMaxSegments - 1>;

}  // namespace vialock::via
