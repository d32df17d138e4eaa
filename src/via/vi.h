// vi.h - Virtual Interfaces: per-process protected channels into the NIC.
//
// A VI is a pair of work queues plus doorbells, bound to one protection tag.
// The tag binding is how VIA enforces that a process can only move memory it
// registered itself: descriptors posted on this VI are checked against the
// TPT under this tag.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/fifo.h"
#include "via/descriptor.h"
#include "via/tpt.h"

namespace vialock::via {

enum class ViState : std::uint8_t { Idle, Connected, Error };

/// VIA delivery service classes (VI spec: reliability is a VI attribute
/// chosen at creation, not per descriptor).
enum class Reliability : std::uint8_t {
  Unreliable,  ///< frames may be lost silently; errors do not break the VI
  Reliable,    ///< delivery errors transition the VI to the Error state
};

[[nodiscard]] constexpr std::string_view to_string(Reliability r) {
  switch (r) {
    case Reliability::Unreliable: return "unreliable";
    case Reliability::Reliable: return "reliable";
  }
  return "?";
}

/// Creation-time attributes of a VI (VipCreateVi's ViAttribs, reduced to
/// what the simulation models). Named factories for the two service classes
/// keep call sites self-describing.
struct ViAttributes {
  Reliability reliability = Reliability::Reliable;

  [[nodiscard]] static constexpr ViAttributes reliable() {
    return {Reliability::Reliable};
  }
  [[nodiscard]] static constexpr ViAttributes unreliable() {
    return {Reliability::Unreliable};
  }
};

/// Completion queue identifier (VIs may direct completions to shared CQs).
using CqId = std::uint32_t;
inline constexpr CqId kInvalidCq = static_cast<CqId>(-1);

/// One VI's NIC-side state: two cache lines. The scalars a transfer reads
/// and the receive queue's header share the first line, the two per-VI
/// completion rings the second. Each ring slot is a whole one-segment
/// descriptor: no per-VI side state travels beside the queues.
struct alignas(64) Vi {
  ViId id = kInvalidVi;
  ProtectionTag tag = kInvalidTag;
  NodeId peer_node = kInvalidNode;
  ViId peer_vi = kInvalidVi;
  CqId send_cq = kInvalidCq;  ///< send completions route here when set
  CqId recv_cq = kInvalidCq;  ///< receive completions route here when set
  ViState state = ViState::Idle;
  bool reliable = true;  ///< reliable delivery: errors break the connection

  Fifo<Descriptor> recv_queue;      ///< posted, not yet consumed
  Fifo<Descriptor> send_completed;  ///< completions awaiting poll
  Fifo<Descriptor> recv_completed;

  [[nodiscard]] bool connected() const { return state == ViState::Connected; }
};
static_assert(sizeof(Vi) == 128);

}  // namespace vialock::via
