// lock_policy.h - the four memory-locking strategies the paper analyses.
//
// A LockPolicy is what the VIA kernel agent calls during VipRegisterMem to
// make a user range DMA-safe and learn its physical pages:
//
//   RefcountLockPolicy  - Berkeley-VIA / M-VIA: "simply increment the
//                         reference counter of the pages". Does NOT lock:
//                         swap_out still unmaps the PTEs (paper section 3.1).
//   PageFlagLockPolicy  - Giganet cLAN: refcount + set PG_locked (and
//                         optionally PG_reserved) "regardless", without
//                         checking prior state, and reset unconditionally on
//                         deregistration. Works, but risky (section 3.1).
//   MlockLockPolicy     - VMA-based do_mlock/sys_mlock with the two privilege
//                         work-arounds and optional driver-side range
//                         tracking; does not nest by itself (section 3.2).
//   KiobufLockPolicy    - the paper's proposal: map_user_kiobuf pins pages
//                         per call, nests naturally, never reads page tables
//                         (section 4).
//
// The policies that model pre-kiobuf drivers read the page tables through
// Kernel::resolve() - the very thing mainline forbids; walks_page_tables()
// reports it so experiment tables can show the conformance column.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "simkern/kernel.h"
#include "util/status.h"

namespace vialock::via {

/// Per-registration state a policy hands back to the kernel agent.
struct LockHandle {
  simkern::Pid pid = simkern::kInvalidPid;
  simkern::VAddr addr = 0;
  std::uint64_t len = 0;
  std::vector<simkern::Pfn> pfns;  ///< frames at registration time (TPT content)
  simkern::Kiobuf kiobuf;          ///< KiobufLockPolicy state
  bool active = false;
};

class LockPolicy {
 public:
  virtual ~LockPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Pin [addr, addr+len) of `pid` and report its physical pages.
  [[nodiscard]] virtual KStatus lock(simkern::Pid pid, simkern::VAddr addr,
                                     std::uint64_t len, LockHandle& out) = 0;

  /// Undo one lock() call.
  virtual void unlock(LockHandle& h) = 0;

  // --- properties for the comparison tables (paper sections 3 and 4) --------
  /// Reliably prevents page relocation under memory pressure.
  [[nodiscard]] virtual bool reliable() const = 0;
  /// Multiple registrations of a range survive a single deregistration.
  [[nodiscard]] virtual bool supports_nesting() const = 0;
  /// Reads kernel page tables from the driver (mainline non-conformant).
  [[nodiscard]] virtual bool walks_page_tables() const = 0;
  /// Needs root / CAP_IPC_LOCK or a kernel patch.
  [[nodiscard]] virtual bool needs_privilege() const { return false; }

 protected:
  explicit LockPolicy(simkern::Kernel& kern) : kern_(kern) {}

  /// Shared helper: fault the range in (write access where the VMA allows,
  /// so COW breaks before the NIC learns addresses) and collect the pfns by
  /// reading the page tables.
  [[nodiscard]] KStatus fault_in_and_collect(simkern::Pid pid,
                                             simkern::VAddr addr,
                                             std::uint64_t len,
                                             std::vector<simkern::Pfn>& pfns);

  simkern::Kernel& kern_;
};

/// Berkeley-VIA / M-VIA: page refcount only. Unreliable by construction.
class RefcountLockPolicy final : public LockPolicy {
 public:
  explicit RefcountLockPolicy(simkern::Kernel& kern) : LockPolicy(kern) {}
  [[nodiscard]] std::string_view name() const override { return "refcount"; }
  [[nodiscard]] KStatus lock(simkern::Pid pid, simkern::VAddr addr,
                             std::uint64_t len, LockHandle& out) override;
  void unlock(LockHandle& h) override;
  [[nodiscard]] bool reliable() const override { return false; }
  [[nodiscard]] bool supports_nesting() const override { return true; }
  [[nodiscard]] bool walks_page_tables() const override { return true; }
};

/// Giganet cLAN style: refcount + PG_locked + PG_reserved (recent Giganet
/// drivers also set PG_reserved), unconditionally.
class PageFlagLockPolicy final : public LockPolicy {
 public:
  explicit PageFlagLockPolicy(simkern::Kernel& kern) : LockPolicy(kern) {}
  [[nodiscard]] std::string_view name() const override { return "pageflag"; }
  [[nodiscard]] KStatus lock(simkern::Pid pid, simkern::VAddr addr,
                             std::uint64_t len, LockHandle& out) override;
  void unlock(LockHandle& h) override;
  [[nodiscard]] bool reliable() const override { return true; }
  /// First deregistration strips the flags from every other registration.
  [[nodiscard]] bool supports_nesting() const override { return false; }
  [[nodiscard]] bool walks_page_tables() const override { return true; }
};

/// VMA-based locking via mlock / do_mlock (paper section 3.2).
class MlockLockPolicy final : public LockPolicy {
 public:
  struct Options {
    /// How the CAP_IPC_LOCK check is circumvented:
    ///   true  - the "User-DMA patch" is applied: call do_mlock directly.
    ///   false - cap_raise(CAP_IPC_LOCK) around sys_mlock, cap_lower after.
    bool userdma_patch = false;
    /// Driver-side bookkeeping of how often each exact range is registered
    /// ("the driver must keep track of which address ranges are registered
    /// how often"). Without it, one deregistration unlocks everything.
    bool track_ranges = false;
  };
  explicit MlockLockPolicy(simkern::Kernel& kern)
      : MlockLockPolicy(kern, Options{}) {}
  MlockLockPolicy(simkern::Kernel& kern, Options opts)
      : LockPolicy(kern), opts_(opts) {}
  [[nodiscard]] std::string_view name() const override {
    return opts_.track_ranges ? "mlock+track" : "mlock";
  }
  [[nodiscard]] KStatus lock(simkern::Pid pid, simkern::VAddr addr,
                             std::uint64_t len, LockHandle& out) override;
  void unlock(LockHandle& h) override;
  [[nodiscard]] bool reliable() const override { return true; }
  [[nodiscard]] bool supports_nesting() const override {
    return opts_.track_ranges;  // and even then only for exact range matches
  }
  [[nodiscard]] bool walks_page_tables() const override { return true; }
  [[nodiscard]] bool needs_privilege() const override { return true; }

 private:
  struct RangeKey {
    simkern::Pid pid;
    simkern::VAddr start;
    simkern::VAddr end;
    auto operator<=>(const RangeKey&) const = default;
  };

  [[nodiscard]] KStatus do_lock_syscall(simkern::Pid pid, simkern::VAddr addr,
                                        std::uint64_t len, bool lock);

  Options opts_;
  std::map<RangeKey, std::uint32_t> range_counts_;
};

/// The paper's proposal: kiobuf-based locking.
class KiobufLockPolicy final : public LockPolicy {
 public:
  explicit KiobufLockPolicy(simkern::Kernel& kern) : LockPolicy(kern) {}
  [[nodiscard]] std::string_view name() const override { return "kiobuf"; }
  [[nodiscard]] KStatus lock(simkern::Pid pid, simkern::VAddr addr,
                             std::uint64_t len, LockHandle& out) override;
  void unlock(LockHandle& h) override;
  [[nodiscard]] bool reliable() const override { return true; }
  [[nodiscard]] bool supports_nesting() const override { return true; }
  [[nodiscard]] bool walks_page_tables() const override { return false; }
};

}  // namespace vialock::via
