// vipl.h - the VI Provider Library: the user-level half of VIA.
//
// Thin, unprivileged wrapper a process uses to talk to its NIC: protection
// tag creation and memory registration trap into the kernel agent (one
// simulated ioctl each); descriptor posting and completion polling go
// straight to the hardware - the defining property of user-level
// communication that VIA standardised.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/status.h"
#include "via/kernel_agent.h"
#include "via/nic.h"

namespace vialock::via {

class Vipl {
 public:
  /// One Vipl instance per process (`pid`) on the node served by `agent`.
  Vipl(KernelAgent& agent, simkern::Pid pid) : agent_(agent), pid_(pid) {}

  /// VipOpenNic + VipCreatePtag.
  [[nodiscard]] KStatus open();
  [[nodiscard]] simkern::Pid pid() const { return pid_; }

  // --- memory ------------------------------------------------------------------
  /// VipRegisterMem. `opts` defaults to RDMA-enabled; use the
  /// KernelAgent::RegisterOptions named factories (send_recv_only(),
  /// rdma_read_only()) for anything else.
  [[nodiscard]] KStatus register_mem(simkern::VAddr addr, std::uint64_t len,
                                     MemHandle& out,
                                     KernelAgent::RegisterOptions opts = {});
  [[nodiscard]] KStatus deregister_mem(const MemHandle& handle);

  // --- VIs ------------------------------------------------------------------------
  /// VipCreateVi: returns Ok and fills `out`, or Proto (no open ptag) /
  /// NoSpc (the NIC's VI table is full).
  [[nodiscard]] KStatus create_vi(ViId& out, ViAttributes attrs = {});

  // --- data transfer ----------------------------------------------------------
  [[nodiscard]] KStatus post_send(ViId vi, const MemHandle& mh,
                                  simkern::VAddr addr, std::uint32_t len,
                                  std::uint64_t cookie = 0);
  [[nodiscard]] KStatus post_recv(ViId vi, const MemHandle& mh,
                                  simkern::VAddr addr, std::uint32_t len,
                                  std::uint64_t cookie = 0);
  [[nodiscard]] KStatus rdma_write(ViId vi, const MemHandle& local_mh,
                                   simkern::VAddr local_addr, std::uint32_t len,
                                   const MemHandle& remote_mh,
                                   simkern::VAddr remote_addr,
                                   std::uint64_t cookie = 0,
                                   std::optional<std::uint32_t> immediate = {});
  [[nodiscard]] KStatus rdma_read(ViId vi, const MemHandle& local_mh,
                                  simkern::VAddr local_addr, std::uint32_t len,
                                  const MemHandle& remote_mh,
                                  simkern::VAddr remote_addr,
                                  std::uint64_t cookie = 0);

  // --- scatter/gather variants ----------------------------------------------
  /// Post a send over multiple data segments (gathered in order).
  [[nodiscard]] KStatus post_send_sg(ViId vi,
                                     const std::vector<DataSegment>& segs,
                                     std::uint64_t cookie = 0);
  /// Post a receive scattering into multiple segments (filled in order).
  [[nodiscard]] KStatus post_recv_sg(ViId vi,
                                     const std::vector<DataSegment>& segs,
                                     std::uint64_t cookie = 0);

  /// VipSendDone / VipRecvDone (polling completion model: a PCI status read
  /// per call - cheap, but burns CPU while spinning).
  [[nodiscard]] std::optional<Descriptor> send_done(ViId vi);
  [[nodiscard]] std::optional<Descriptor> recv_done(ViId vi);

  /// VipSendWait / VipRecvWait (waiting completion model: the process blocks
  /// and an interrupt reawakens it - "more expensive than polling on a local
  /// memory location", the latency penalty the family's MPI comparison paper
  /// measured on MPI/Pro). Charged only when a completion is delivered.
  [[nodiscard]] std::optional<Descriptor> send_wait(ViId vi);
  [[nodiscard]] std::optional<Descriptor> recv_wait(ViId vi);

  // --- batched submission / completion (E18's modes extended; E24) -----------
  /// One entry of a post_send_batch burst.
  struct SendPost {
    MemHandle mh;
    simkern::VAddr addr = 0;
    std::uint32_t len = 0;
    std::uint64_t cookie = 0;
  };
  /// Build and post a burst of sends behind a SINGLE doorbell ring: the
  /// per-entry descriptor-build cost still applies, but the doorbell and its
  /// MMIO round amortise across the burst (Nic::post_send_batch).
  [[nodiscard]] KStatus post_send_batch(ViId vi,
                                        std::span<const SendPost> posts);

  /// One entry of a post_recv_batch burst (same shape as SendPost; a
  /// distinct type keeps send/recv call sites from mixing).
  struct RecvPost {
    MemHandle mh;
    simkern::VAddr addr = 0;
    std::uint32_t len = 0;
    std::uint64_t cookie = 0;
  };
  /// Build and pre-post a burst of receives behind a SINGLE doorbell ring
  /// (Nic::post_recv_batch) - the connection-setup / credit-refill
  /// amortisation the msg/svc tiers use.
  [[nodiscard]] KStatus post_recv_batch(ViId vi,
                                        std::span<const RecvPost> posts);

  // --- completion queues (VipCreateCQ / VipCQDone) ---------------------------
  [[nodiscard]] CqId create_cq() { return agent_.nic().create_cq(); }
  [[nodiscard]] KStatus attach_send_cq(ViId vi, CqId cq) {
    return agent_.nic().attach_send_cq(vi, cq);
  }
  [[nodiscard]] KStatus attach_recv_cq(ViId vi, CqId cq) {
    return agent_.nic().attach_recv_cq(vi, cq);
  }
  [[nodiscard]] std::optional<Nic::CqEntry> cq_done(CqId cq) {
    return agent_.nic().poll_cq(cq);
  }
  [[nodiscard]] Nic& nic() { return agent_.nic(); }
  [[nodiscard]] KernelAgent& agent() { return agent_; }

 private:
  [[nodiscard]] Descriptor build(DescOp op, DataSegment local,
                                 std::uint64_t cookie);

  KernelAgent& agent_;
  simkern::Pid pid_;
  ProtectionTag tag_ = kInvalidTag;
  /// The descriptors of the burst being posted, kept so that a steady
  /// stream of bursts allocates nothing (the NIC moves them out).
  std::vector<Descriptor> batch_;
};

}  // namespace vialock::via
