// slot_ring.h - a registered ring of bounce slots bound to one VI.
//
// msg, mp and svc each keep receive slots posted on a VI: one registration
// over the ring, a receive descriptor per posted slot, a repost after each
// harvest. SlotRing is that ring, and the one owner of its registration and
// posted receives. The caller keeps the mapping (svc recycles ring address
// ranges across connections; mp carves a send staging slot behind the
// posted credits) and the VI.
#pragma once

#include <cstdint>
#include <utility>

#include "via/vipl.h"

namespace vialock::via {

class SlotRing {
 public:
  SlotRing() = default;
  ~SlotRing() { close(); }
  SlotRing(SlotRing&& other) noexcept : s_(std::exchange(other.s_, {})) {}
  SlotRing& operator=(SlotRing&& other) noexcept {
    close();
    s_ = std::exchange(other.s_, {});
    return *this;
  }
  SlotRing(const SlotRing&) = delete;
  SlotRing& operator=(const SlotRing&) = delete;

  /// Register [base, base + len) with `opts` and post slots [first, first +
  /// count) of `slot_size` bytes on `vi` behind one doorbell. Posted slot k
  /// carries cookie `tag | k`. On failure the ring stays closed and nothing
  /// stays registered. A ring with `count` 0 is a plain registration.
  [[nodiscard]] KStatus open(Vipl& vipl, ViId vi, simkern::VAddr base,
                             std::uint64_t len, std::uint32_t slot_size,
                             std::uint32_t first, std::uint32_t count,
                             std::uint64_t tag = 0,
                             KernelAgent::RegisterOptions opts = {});

  /// Clear the VI's posted receives and queued completions, then
  /// deregister: the NIC can never scatter into deregistered slots. A
  /// closed or moved-from ring does nothing.
  void close();

  /// Address of slot `i` of the region (posted or not).
  [[nodiscard]] simkern::VAddr addr(std::uint32_t i) const {
    return s_.base + static_cast<std::uint64_t>(i) * s_.slot_size;
  }
  [[nodiscard]] const MemHandle& handle() const { return s_.mh; }
  /// Re-arm posted slot `k` (the low half of its cookie).
  [[nodiscard]] KStatus repost(std::uint32_t k) {
    return s_.vipl->post_recv(s_.vi, s_.mh, addr(s_.first + k), s_.slot_size,
                              s_.tag | k);
  }

 private:
  struct State {
    Vipl* vipl = nullptr;  ///< null: closed, nothing to release
    ViId vi = kInvalidVi;
    simkern::VAddr base = 0;
    MemHandle mh;
    std::uint32_t slot_size = 0;
    std::uint32_t first = 0;
    std::uint64_t tag = 0;
  } s_;
};

}  // namespace vialock::via
