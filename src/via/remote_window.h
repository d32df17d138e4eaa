// remote_window.h - SCI-style programmed I/O into exported remote memory.
//
// The collection's combined VIA/SCI papers insist a communication system
// needs BOTH transfer modes: "besides a powerful DMA engine controllable
// from user-level, a distributed shared memory for programmed IO is an
// important feature which shouldn't be missed" - PIO wins for short
// transfers (a simple store, ~2.3 us on Dolphin hardware), descriptor DMA
// for long ones. A RemoteWindow is the import side of that model: a process
// imports a region another process *exported* (registered), and then moves
// data with plain store/load semantics - no descriptors, no doorbells.
//
// Every access is translated and protection-checked through the exporter's
// TPT, so the window inherits the paper's central hazard too: if the
// exporter's pages were not reliably locked, PIO silently reads/writes stale
// frames exactly like the DMA engine does (see remote_window_test.cc).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/status.h"
#include "via/fabric.h"
#include "via/memory_handle.h"

namespace vialock::via {

class RemoteWindow {
 public:
  /// Import `exported` (a registration on `remote_node`, its handle
  /// communicated out of band) into an accessor owned by `local_node`.
  /// Fails when the handle is not live in the remote TPT.
  [[nodiscard]] static std::optional<RemoteWindow> import(
      Fabric& fabric, NodeId local_node, NodeId remote_node,
      const MemHandle& exported);

  /// Posted remote store: data lands in the exporter's physical frames.
  [[nodiscard]] KStatus store(std::uint64_t offset,
                              std::span<const std::byte> data);
  /// Remote read ("an expensive operation in the SCI environment").
  [[nodiscard]] KStatus load(std::uint64_t offset, std::span<std::byte> out);

  [[nodiscard]] std::uint64_t size() const { return handle_.length; }
  [[nodiscard]] NodeId remote_node() const { return remote_; }

 private:
  RemoteWindow(Fabric& fabric, NodeId local, NodeId remote, MemHandle handle)
      : fabric_(&fabric), local_(local), remote_(remote), handle_(handle) {}

  /// Store `bytes` (const) into, or load them from, the exporter's frames
  /// through its NIC's TPT, charging the PIO cost of that direction.
  template <typename Byte>
  [[nodiscard]] KStatus access(std::uint64_t offset, std::span<Byte> bytes);

  Fabric* fabric_;
  NodeId local_;
  NodeId remote_;
  MemHandle handle_;
};

}  // namespace vialock::via
