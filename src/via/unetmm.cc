#include "via/unetmm.h"

#include <cassert>

namespace vialock::via {

using simkern::kPageShift;
using simkern::kPageSize;
using simkern::page_align_down;
using simkern::Pid;
using simkern::VAddr;

UnetMmAgent::UnetMmAgent(simkern::Kernel& kern, Nic& nic)
    : kern_(kern), nic_(nic) {
  kern_.add_mmu_notifier(this);
}

UnetMmAgent::~UnetMmAgent() { kern_.remove_mmu_notifier(this); }

ProtectionTag UnetMmAgent::create_ptag(Pid pid) {
  kern_.clock().advance(kern_.costs().syscall);
  if (!kern_.task_exists(pid)) return kInvalidTag;
  return next_tag_++;
}

KStatus UnetMmAgent::register_mem(Pid pid, VAddr addr, std::uint64_t len,
                                  ProtectionTag tag, MemHandle& out) {
  kern_.clock().advance(kern_.costs().syscall);
  if (tag == kInvalidTag || len == 0) return KStatus::Inval;
  if (!kern_.task_exists(pid)) return KStatus::NoEnt;

  const VAddr start = page_align_down(addr);
  const auto pages = static_cast<std::uint32_t>(
      simkern::pages_spanned(addr, len));
  const TptIndex base = nic_.tpt().alloc(pages);
  if (base == kInvalidTptIndex) return KStatus::NoSpc;

  for (std::uint32_t i = 0; i < pages; ++i) {
    const VAddr v = start + (static_cast<std::uint64_t>(i) << kPageShift);
    const KStatus st = kern_.make_present(pid, v, /*write=*/true);
    if (!ok(st)) {
      nic_.tpt().release(base, pages);
      return st;
    }
    const auto pfn = kern_.resolve(pid, v);
    assert(pfn.has_value());
    // U-Net/MM invalidates and repairs entries one page at a time, so this
    // agent always programs the order-0 dense layout (page_start == index).
    nic_.program_tpt(base + i, TptEntry{.pfn = *pfn,
                                        .tag = tag,
                                        .page_start = i,
                                        .valid = true,
                                        .rdma_write_enable = true,
                                        .rdma_read_enable = true});
  }
  out = MemHandle{.tpt_base = base,
                  .pages = pages,
                  .tpt_count = pages,
                  .vaddr = addr,
                  .length = len,
                  .tag = tag,
                  .id = next_reg_id_++};
  nic_.set_region(out);
  regs_.emplace(out.id, Registration{out, pid});
  ++stats_.registrations;
  return KStatus::Ok;
}

KStatus UnetMmAgent::deregister_mem(const MemHandle& handle) {
  kern_.clock().advance(kern_.costs().syscall);
  auto it = regs_.find(handle.id);
  if (it == regs_.end()) return KStatus::NoEnt;
  nic_.clear_region(it->second.handle.tpt_base);
  nic_.tpt().release(it->second.handle.tpt_base, it->second.handle.pages);
  regs_.erase(it);
  return KStatus::Ok;
}

void UnetMmAgent::on_invalidate(Pid pid, VAddr vaddr, simkern::Pfn /*old_pfn*/) {
  // Shoot down any TLB entry translating (pid, vaddr). Linear scan over the
  // registrations - real systems keep a reverse map; registration counts are
  // small here and the scan cost is charged per entry looked at.
  for (auto& [id, reg] : regs_) {
    if (reg.pid != pid) continue;
    const VAddr start = page_align_down(reg.handle.vaddr);
    const VAddr end =
        start + (static_cast<std::uint64_t>(reg.handle.pages) << kPageShift);
    if (vaddr < start || vaddr >= end) continue;
    const auto idx = static_cast<std::uint32_t>((vaddr - start) >> kPageShift);
    TptEntry e = nic_.tpt().get(reg.handle.tpt_base + idx);
    if (!e.valid) continue;
    e.valid = false;
    nic_.program_tpt(reg.handle.tpt_base + idx, e);
    ++stats_.invalidations;
  }
}

KStatus UnetMmAgent::repair(Registration& reg, VAddr addr, std::uint64_t len) {
  // The NIC raised a fault interrupt; the driver pages the *accessed* range
  // back in and revalidates its entries.
  kern_.clock().advance(kern_.costs().nic_page_fault);
  const VAddr reg_start = page_align_down(reg.handle.vaddr);
  const VAddr lo = page_align_down(addr);
  const VAddr hi = simkern::page_align_up(addr + (len ? len : 1));
  for (VAddr v = lo; v < hi; v += kPageSize) {
    if (v < reg_start) return KStatus::Fault;
    const auto i = static_cast<std::uint32_t>((v - reg_start) >> kPageShift);
    if (i >= reg.handle.pages) return KStatus::Fault;
    TptEntry e = nic_.tpt().get(reg.handle.tpt_base + i);
    if (e.valid) continue;
    const std::uint64_t majors_before = kern_.stats().major_faults;
    const KStatus st = kern_.make_present(reg.pid, v, /*write=*/true);
    if (!ok(st)) return st;
    if (kern_.stats().major_faults > majors_before) ++stats_.repair_pageins;
    const auto pfn = kern_.resolve(reg.pid, v);
    if (!pfn) return KStatus::Fault;
    e.pfn = *pfn;
    e.valid = true;
    nic_.program_tpt(reg.handle.tpt_base + i, e);
  }
  return KStatus::Ok;
}

namespace {
/// A fault immediately after its own repair means another reclaim stole the
/// page mid-sequence; real firmware keeps retrying. Bound it defensively.
constexpr int kMaxDmaRetries = 64;
}  // namespace

KStatus UnetMmAgent::dma_write(const MemHandle& handle, VAddr addr,
                               std::span<const std::byte> data) {
  auto it = regs_.find(handle.id);
  if (it == regs_.end()) return KStatus::NoEnt;
  KStatus st = nic_.dma_write_local(handle, addr, data);
  for (int retry = 0; st == KStatus::Fault && retry < kMaxDmaRetries; ++retry) {
    ++stats_.nic_faults;
    if (const KStatus rs = repair(it->second, addr, data.size()); !ok(rs))
      return rs;
    st = nic_.dma_write_local(handle, addr, data);
  }
  return st;
}

KStatus UnetMmAgent::dma_read(const MemHandle& handle, VAddr addr,
                              std::span<std::byte> out) {
  auto it = regs_.find(handle.id);
  if (it == regs_.end()) return KStatus::NoEnt;
  KStatus st = nic_.dma_read_local(handle, addr, out);
  for (int retry = 0; st == KStatus::Fault && retry < kMaxDmaRetries; ++retry) {
    ++stats_.nic_faults;
    if (const KStatus rs = repair(it->second, addr, out.size()); !ok(rs))
      return rs;
    st = nic_.dma_read_local(handle, addr, out);
  }
  return st;
}

}  // namespace vialock::via
