// kernel_agent.h - the VI Kernel Agent: the device driver half of VIA.
//
// Performs the privileged operations of the VI Architecture - protection-tag
// creation and memory registration/deregistration - on behalf of user
// processes (each entry models an ioctl, so it charges syscall cost). Memory
// registration is where the paper lives: the agent asks its LockPolicy to pin
// the user range and learn its physical pages, then programs the NIC's TPT
// over PCI. Whether those TPT entries stay truthful under memory pressure is
// entirely the policy's doing.
//
// When a PinGovernor is attached (set_governor), every registration passes
// its admission control (per-tenant quota + host ceiling, frame-deduplicated
// accounting) and deregistrations may be deferred to its lazy batch queue.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "fault/fault.h"
#include "pinmgr/pin_governor.h"
#include "simkern/kernel.h"
#include "util/status.h"
#include "via/lock_policy.h"
#include "via/nic.h"
#include "via/superpage.h"

namespace vialock::via {

struct AgentStats {
  std::uint64_t registrations = 0;
  std::uint64_t deregistrations = 0;
  std::uint64_t pages_registered = 0;
  std::uint64_t lock_failures = 0;
  std::uint64_t tpt_full = 0;
  std::uint64_t admission_rejects = 0;       ///< governor refused a registration
  std::uint64_t lazy_deregs = 0;             ///< deregs deferred to the governor
  std::uint64_t tpt_entries_programmed = 0;  ///< entries written (== pages
                                             ///< at order 0; fewer with
                                             ///< superpages)
};

class KernelAgent {
 public:
  /// Attributes of a registration. Prefer the named factories over brace
  /// initialisation - positional bools read as line noise at call sites.
  struct RegisterOptions {
    bool rdma_write = true;
    bool rdma_read = true;

    /// The default: remote writes and reads both enabled.
    [[nodiscard]] static constexpr RegisterOptions rdma_enabled() {
      return {true, true};
    }
    /// Send/receive only - the region refuses all RDMA access.
    [[nodiscard]] static constexpr RegisterOptions send_recv_only() {
      return {false, false};
    }
    /// Outbound RDMA reads only (an exported source buffer).
    [[nodiscard]] static constexpr RegisterOptions rdma_read_only() {
      return {false, true};
    }
  };

  KernelAgent(simkern::Kernel& kern, Nic& nic, LockPolicy& policy);
  ~KernelAgent();

  KernelAgent(const KernelAgent&) = delete;
  KernelAgent& operator=(const KernelAgent&) = delete;

  /// VipCreatePtag: mint a protection tag for `pid`.
  [[nodiscard]] ProtectionTag create_ptag(simkern::Pid pid);

  /// Map the doorbell page of `vi` into `pid`'s address space as a VM_IO
  /// mapping. "The size of a doorbell is equal to the page size of the host
  /// computer and so the handling which process may access which doorbell
  /// can be simply realized by the host's virtual memory management system"
  /// (paper section on VIA protection). One page per VI, carved out of the
  /// platform's reserved device-register frames.
  [[nodiscard]] std::optional<simkern::VAddr> map_doorbell(simkern::Pid pid,
                                                           ViId vi);

  /// VipRegisterMem: pin [addr, addr+len) and enter it into the TPT.
  [[nodiscard]] KStatus register_mem(simkern::Pid pid, simkern::VAddr addr,
                                     std::uint64_t len, ProtectionTag tag,
                                     MemHandle& out,
                                     RegisterOptions opts =
                                         RegisterOptions::rdma_enabled());

  /// VipDeregisterMem: release TPT entries and undo the pin.
  [[nodiscard]] KStatus deregister_mem(const MemHandle& handle);

  /// Route registrations through `governor` (nullptr detaches). The governor
  /// must outlive the agent or be detached first.
  void set_governor(pinmgr::PinGovernor* governor) { governor_ = governor; }
  [[nodiscard]] pinmgr::PinGovernor* governor() { return governor_; }

  /// Attach the chaos engine (nullptr detaches): arms the TptAlloc site so
  /// table-claim failures are injectable mid-registration.
  void set_fault_engine(fault::FaultEngine* engine) { faults_ = engine; }

  /// Tenant teardown: flush the governor's deferred deregistrations, then
  /// eagerly deregister every live registration of `pid` and drop its
  /// governor accounting - nothing may leak when a tenant exits.
  void release_tenant(simkern::Pid pid);

  [[nodiscard]] LockPolicy& policy() { return policy_; }
  [[nodiscard]] const AgentStats& stats() const { return stats_; }
  [[nodiscard]] Nic& nic() { return nic_; }
  [[nodiscard]] simkern::Kernel& kern() { return kern_; }

  /// The lock handle of a live registration (experiment introspection). The
  /// pointer stays valid until that registration is deregistered.
  [[nodiscard]] const LockHandle* lock_handle(std::uint64_t reg_id) const;
  [[nodiscard]] std::size_t live_registrations() const {
    return regs_.size();
  }

 private:
  struct Registration {
    MemHandle handle;
    LockHandle lock;
  };

  /// TPT release + uncharge + unlock + stats; returns pages released.
  std::uint32_t finish_dereg(Registration& reg);

  /// Tpt::alloc with the injectable TptAlloc fault site in front and one
  /// lazy-queue flush retry behind (deferred deregs still hold slots).
  [[nodiscard]] TptIndex tpt_alloc(std::uint32_t count);

  /// Program `runs` of `pfns` into entries [base, base+runs.size()).
  void program_runs(TptIndex base, std::span<const SuperpageRun> runs,
                    std::span<const simkern::Pfn> pfns, ProtectionTag tag,
                    RegisterOptions opts);

  simkern::Kernel& kern_;
  Nic& nic_;
  LockPolicy& policy_;
  pinmgr::PinGovernor* governor_ = nullptr;
  fault::FaultEngine* faults_ = nullptr;
  AgentStats stats_;
  // Ioctl latency histograms, owned by the kernel's metric registry.
  obs::Histogram& register_ns_;
  obs::Histogram& dereg_ns_;
  obs::Histogram& tpt_alloc_pages_;
  std::unordered_map<std::uint64_t, Registration> regs_;
  std::uint64_t next_reg_id_ = 1;
  ProtectionTag next_tag_ = 1;
};

}  // namespace vialock::via
