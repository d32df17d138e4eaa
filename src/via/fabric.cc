#include "via/fabric.h"

#include <cassert>

namespace vialock::via {

NodeId Fabric::attach(Nic& nic) {
  const auto id = static_cast<NodeId>(nics_.size());
  nics_.push_back(&nic);
  nic.attach(this, id);
  return id;
}

KStatus Fabric::connect(NodeId node_a, ViId vi_a, NodeId node_b, ViId vi_b) {
  return pair(node_a, vi_a, node_b, vi_b, /*repair=*/false);
}

KStatus Fabric::pair(NodeId node_a, ViId vi_a, NodeId node_b, ViId vi_b,
                     bool repair) {
  if (node_a >= nics_.size() || node_b >= nics_.size()) return KStatus::Inval;
  Nic& na = *nics_[node_a];
  Nic& nb = *nics_[node_b];
  if (!na.vi_exists(vi_a) || !nb.vi_exists(vi_b)) return KStatus::Inval;
  Vi& a = na.vi(vi_a);
  Vi& b = nb.vi(vi_b);
  if (repair) {
    // Connection management traffic: one request/accept exchange on the wire.
    clock_.advance(2 * costs_.wire(64));
  } else if (a.connected() || b.connected()) {
    return KStatus::Busy;
  }
  a.state = ViState::Connected;
  a.peer_node = node_b;
  a.peer_vi = vi_b;
  b.state = ViState::Connected;
  b.peer_node = node_a;
  b.peer_vi = vi_a;
  return KStatus::Ok;
}

KStatus Fabric::disconnect(NodeId node, ViId vi) {
  if (node >= nics_.size() || !nics_[node]->vi_exists(vi)) return KStatus::Inval;
  Vi& v = nics_[node]->vi(vi);
  if (!v.connected()) return KStatus::Proto;
  Nic& peer_nic = *nics_[v.peer_node];
  if (peer_nic.vi_exists(v.peer_vi)) {
    Vi& peer = peer_nic.vi(v.peer_vi);
    if (peer.connected() && peer.peer_node == node && peer.peer_vi == vi) {
      peer.state = ViState::Error;  // the peer sees a broken connection
    }
  }
  v.state = ViState::Idle;
  v.peer_node = kInvalidNode;
  v.peer_vi = kInvalidVi;
  return KStatus::Ok;
}

KStatus Fabric::repair(NodeId node_a, ViId vi_a, NodeId node_b, ViId vi_b) {
  return pair(node_a, vi_a, node_b, vi_b, /*repair=*/true);
}

DescStatus Fabric::transmit(Nic::Packet& pkt) {
  // Find the destination: the source VI's connection names the peer node.
  assert(pkt.src_node < nics_.size());
  Vi& src = nics_[pkt.src_node]->vi(pkt.src_vi);
  if (!src.connected()) return DescStatus::ErrDisconnected;
  const NodeId dst = src.peer_node;
  assert(dst < nics_.size());

  // Injected connection reset: the link drops mid-transfer, both endpoints
  // observe a broken VI. A reliable transport must repair() and retry.
  if (faults_) {
    if (const auto d = faults_->check(fault::FaultSite::Connection);
        d && d->action != fault::FaultAction::Delay) {
      ++connection_resets_;
      src.state = ViState::Error;
      if (nics_[dst]->vi_exists(src.peer_vi)) {
        nics_[dst]->vi(src.peer_vi).state = ViState::Error;
      }
      return DescStatus::ErrDisconnected;
    }
  }

  // Cut-through pipeline: source DMA, wire and sink DMA stream
  // concurrently; one latency plus the slowest stage's per-byte rate.
  // The wire span lands on the *sending* host's recorder so one trace reads
  // doorbell -> gather -> wire -> (remote) deliver.
  const obs::ScopedSpan wire_span(nics_[pkt.src_node]->host().spans(),
                                  "via.wire");
  // A Send or RdmaWrite carries its payload; an RdmaRead's payload is the
  // room its response fills.
  const std::uint64_t bytes = pkt.payload.size();
  clock_.advance(costs_.wire_latency + bytes * costs_.dma_path_per_byte);

  // Injected wire loss: the packet vanishes downstream of the sender's NIC,
  // which has already completed the send - the silent-loss case only an
  // acknowledgement protocol can detect. (A lost RdmaRead request carries
  // its response with it, so the requester sees a disconnect-style error.)
  if (faults_) {
    if (const auto d = faults_->check(fault::FaultSite::Wire);
        d && (d->action == fault::FaultAction::Drop ||
              d->action == fault::FaultAction::Fail)) {
      ++packets_dropped_;
      return pkt.op == DescOp::RdmaRead ? DescStatus::ErrDisconnected
                                        : DescStatus::Done;
    }
  }

  const DescStatus st = nics_[dst]->deliver(pkt);
  if (pkt.op == DescOp::RdmaRead && st == DescStatus::Done) {
    // The response path carries the data back.
    clock_.advance(costs_.wire_latency + bytes * costs_.dma_path_per_byte);
  }
  return st;
}

}  // namespace vialock::via
