#include "via/remote_window.h"

#include <type_traits>

namespace vialock::via {

std::optional<RemoteWindow> RemoteWindow::import(Fabric& fabric,
                                                 NodeId local_node,
                                                 NodeId remote_node,
                                                 const MemHandle& exported) {
  if (local_node >= fabric.num_nodes() || remote_node >= fabric.num_nodes())
    return std::nullopt;
  // Import = set up the downstream translation; validated against the
  // exporter's live region table and TPT (first page suffices: contiguous
  // range).
  Nic& nic = fabric.nic(remote_node);
  const RegionRecord rec = nic.region(exported.tpt_base);
  if (!exported.valid() || rec.tag != exported.tag || rec.length == 0)
    return std::nullopt;
  if (!nic.tpt().translate(exported.tpt_base, rec.tpt_count,
                           *rec.offset_of(rec.vaddr, 1), rec.tag, false,
                           false)) {
    return std::nullopt;
  }
  fabric.clock().advance(fabric.costs().syscall);  // the mapping ioctl
  return RemoteWindow(fabric, local_node, remote_node, exported.tpt_base,
                      exported.tag);
}

RegionRecord RemoteWindow::record() const {
  const RegionRecord rec = fabric_->nic(remote_).region(base_);
  return rec.tag == tag_ ? rec : RegionRecord{};
}

template <typename Byte>
KStatus RemoteWindow::access(std::uint64_t offset, std::span<Byte> bytes) {
  if (bytes.empty()) return KStatus::Ok;
  // Fails once the region is deregistered or its protection changes.
  const RegionRecord rec = record();
  if (rec.tag == kInvalidTag) return KStatus::Fault;
  if (offset + bytes.size() > rec.length) return KStatus::Inval;
  if (!fabric_->nic(remote_).tpt_copy(base_, rec.vaddr + offset, bytes, tag_,
                                      TptAccess::Local)) {
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
