// fabric.h - the switched interconnect between NICs.
//
// Synchronous delivery against the shared virtual clock: transmit() charges
// wire latency + streaming time, then hands the packet to the destination
// NIC. Connection setup pairs two VIs (the VIA point-to-point model).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "util/clock.h"
#include "util/cost_model.h"
#include "util/status.h"
#include "via/nic.h"

namespace vialock::via {

class Fabric {
 public:
  Fabric(Clock& clock, const CostModel& costs) : clock_(clock), costs_(costs) {}

  /// Attach a NIC; returns its node id.
  NodeId attach(Nic& nic);

  /// Connect vi_a on node_a with vi_b on node_b (both become Connected).
  /// The only way to connect: every caller knows both endpoints, so the
  /// VIA client/server rendezvous (VipConnectWait / VipConnectRequest) is
  /// not modelled.
  [[nodiscard]] KStatus connect(NodeId node_a, ViId vi_a, NodeId node_b,
                                ViId vi_b);

  /// VipDisconnect: tear the connection down; the peer VI goes to Error (it
  /// learns of the disconnect the next time it is used), this one to Idle.
  [[nodiscard]] KStatus disconnect(NodeId node, ViId vi);

  /// VipDisconnect + VipConnectRequest compressed into one call: force both
  /// VIs of a (possibly broken) pairing back to Connected. This is the
  /// connection re-establishment a reliable transport performs after an
  /// injected reset; it fails with Inval when the endpoints do not exist.
  [[nodiscard]] KStatus repair(NodeId node_a, ViId vi_a, NodeId node_b,
                               ViId vi_b);

  /// Wire transfer + remote delivery; returns the sender-side status.
  [[nodiscard]] DescStatus transmit(Nic::Packet& pkt);

  /// Arm fault injection on the wire: Wire (packets vanish in flight after
  /// the sender's completion) and Connection (the link resets, both VIs go
  /// to Error). nullptr disarms.
  void set_fault_engine(fault::FaultEngine* engine) { faults_ = engine; }

  [[nodiscard]] std::uint64_t packets_dropped() const {
    return packets_dropped_;
  }
  [[nodiscard]] std::uint64_t connection_resets() const {
    return connection_resets_;
  }

  [[nodiscard]] Nic& nic(NodeId id) { return *nics_.at(id); }
  [[nodiscard]] std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nics_.size());
  }
  [[nodiscard]] Clock& clock() { return clock_; }
  [[nodiscard]] const CostModel& costs() const { return costs_; }

 private:
  /// connect() and repair(): pair two existing VIs. A repair charges the
  /// connection-management exchange and may re-pair VIs still marked
  /// connected; a fresh connect refuses them with Busy.
  [[nodiscard]] KStatus pair(NodeId node_a, ViId vi_a, NodeId node_b,
                             ViId vi_b, bool repair);

  Clock& clock_;
  const CostModel& costs_;
  std::vector<Nic*> nics_;
  fault::FaultEngine* faults_ = nullptr;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t connection_resets_ = 0;
};

}  // namespace vialock::via
