#include "via/remote_window.h"

#include <type_traits>

namespace vialock::via {

std::optional<RemoteWindow> RemoteWindow::import(Fabric& fabric,
                                                 NodeId local_node,
                                                 NodeId remote_node,
                                                 const MemHandle& exported) {
  if (local_node >= fabric.num_nodes() || remote_node >= fabric.num_nodes())
    return std::nullopt;
  if (!exported.valid() || exported.length == 0) return std::nullopt;
  // Import = set up the downstream translation; validated against the
  // exporter's live TPT state (first page suffices: contiguous range).
  const Tpt& tpt = fabric.nic(remote_node).tpt();
  const auto base_off = exported.record().offset_of(exported.vaddr, 1);
  if (!base_off) return std::nullopt;
  if (!tpt.translate(exported.tpt_base, exported.tpt_count, *base_off,
                     exported.tag, false, false)) {
    return std::nullopt;
  }
  fabric.clock().advance(fabric.costs().syscall);  // the mapping ioctl
  return RemoteWindow(fabric, local_node, remote_node, exported);
}

template <typename Byte>
KStatus RemoteWindow::access(std::uint64_t offset, std::span<Byte> bytes) {
  if (bytes.empty()) return KStatus::Ok;
  if (offset + bytes.size() > handle_.length) return KStatus::Inval;
  // Fails once the region is deregistered or its protection changes.
  if (!fabric_->nic(remote_).tpt_copy(handle_, handle_.vaddr + offset, bytes,
                                      handle_.tag, TptAccess::Local)) {
    return KStatus::Fault;
  }
  const CostModel& c = fabric_->costs();
  fabric_->clock().advance(
      (std::is_const_v<Byte> ? c.pio_store_latency : c.pio_read_rtt) +
      bytes.size() * c.pio_per_byte);
  return KStatus::Ok;
}

KStatus RemoteWindow::store(std::uint64_t offset,
                            std::span<const std::byte> data) {
  return access(offset, data);
}

KStatus RemoteWindow::load(std::uint64_t offset, std::span<std::byte> out) {
  return access(offset, out);
}

}  // namespace vialock::via
