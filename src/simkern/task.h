// task.h - task_struct: one simulated process with its address space,
// capabilities and rlimits.
//
// Capabilities matter to the paper: only tasks holding CAP_IPC_LOCK may call
// mlock(), which is why the VMA-based locking approach needs either the
// User-DMA kernel patch or the cap_raise()/cap_lower() trick (section 3.2).
#pragma once

#include <cstdint>
#include <string>

#include "simkern/pagetable.h"
#include "simkern/types.h"
#include "simkern/vma.h"
#include "util/flags.h"

namespace vialock::simkern {

enum class Capability : std::uint8_t {
  None = 0,
  IpcLock = 1 << 0,  ///< CAP_IPC_LOCK: may pin memory via mlock
  SysAdmin = 1 << 1,
};

}  // namespace vialock::simkern

template <>
inline constexpr bool vialock::enable_flag_ops<vialock::simkern::Capability> = true;

namespace vialock::simkern {

/// mm_struct: the data half of an address space (algorithms live in Kernel).
struct AddressSpace {
  VmaSet vmas;
  PageTable pt;
  std::uint64_t rss = 0;           ///< resident pages
  std::uint64_t locked_pages = 0;  ///< pages under VM_LOCKED (rlimit accounting)
  VAddr mmap_base = 0x40000000;    ///< where anonymous mmaps start (i386 layout)
};

struct Task {
  Pid pid = kInvalidPid;
  std::string name;
  Capability caps = Capability::None;
  std::uint64_t rlimit_memlock = ~0ULL;  ///< bytes lockable via mlock
  AddressSpace mm;
  VAddr swap_cursor = 0;  ///< swap_out_process resume address (task->swap_address)

  [[nodiscard]] bool capable(Capability c) const { return has(caps, c); }
};

}  // namespace vialock::simkern
