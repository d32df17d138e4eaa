// node.h - one cluster node (kernel + NIC + agent) and the Cluster helper
// that wires several of them onto a shared fabric and virtual clock.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pinmgr/pin_governor.h"
#include "simkern/kernel.h"
#include "util/clock.h"
#include "util/cost_model.h"
#include "via/fabric.h"
#include "via/kernel_agent.h"
#include "via/nic.h"
#include "via/policy_factory.h"

namespace vialock::via {

struct NodeSpec {
  simkern::KernelConfig kernel;
  NicConfig nic;
  PolicyKind policy = PolicyKind::Kiobuf;
};

/// A host: simulated kernel, VIA NIC, kernel agent with its lock policy.
class Node {
 public:
  Node(const NodeSpec& spec, Clock& clock, const CostModel& costs)
      : kernel_(spec.kernel, clock, costs),
        nic_(kernel_, clock, costs, spec.nic),
        policy_(make_policy(spec.policy, kernel_)),
        agent_(kernel_, nic_, *policy_) {}

  [[nodiscard]] simkern::Kernel& kernel() { return kernel_; }
  [[nodiscard]] Nic& nic() { return nic_; }
  [[nodiscard]] LockPolicy& policy() { return *policy_; }
  [[nodiscard]] KernelAgent& agent() { return agent_; }

  /// Construct and wire a PinGovernor into this node: every registration
  /// passes its admission control, and vmscan's pressure path invokes its
  /// cooperative-reclaim callback. Replaces a previous governor, if any.
  pinmgr::PinGovernor& enable_governor(
      const pinmgr::GovernorConfig& config = {}) {
    if (governor_) {
      agent_.set_governor(nullptr);
      kernel_.remove_pressure_handler(governor_.get());
    }
    governor_ = std::make_unique<pinmgr::PinGovernor>(kernel_, config);
    governor_->set_fault_engine(faults_);
    agent_.set_governor(governor_.get());
    kernel_.add_pressure_handler(governor_.get());
    return *governor_;
  }
  [[nodiscard]] pinmgr::PinGovernor* governor() { return governor_.get(); }

  /// What the node still holds once every layer on it is gone: governor
  /// charge, pinned frames and live TPT entries, one violation each. Empty
  /// when the node is quiescent.
  [[nodiscard]] std::vector<std::string> quiescent() const {
    std::vector<std::string> out;
    const auto held = [&out](std::uint64_t n, std::string before,
                             std::string after) {
      if (n != 0) out.push_back(before + std::to_string(n) + after);
    };
    held(governor_ ? governor_->total_charged() : 0, "governor still charges ",
         " pages after teardown");
    held(kernel_.pinned_frames(), "", " frames still pinned after teardown");
    held(nic_.tpt().used(), "", " TPT entries still live after teardown");
    return out;
  }

  /// Arm fault injection on this node's kernel, NIC, kernel agent, and
  /// governor (nullptr disarms).
  void set_fault_engine(fault::FaultEngine* engine) {
    faults_ = engine;
    kernel_.set_fault_engine(engine);
    nic_.set_fault_engine(engine);
    agent_.set_fault_engine(engine);
    if (governor_) governor_->set_fault_engine(engine);
  }

 private:
  simkern::Kernel kernel_;
  Nic nic_;
  std::unique_ptr<LockPolicy> policy_;
  KernelAgent agent_;
  // Declared after agent_: destroyed first, while the agent the drain
  // callbacks deregister through is still alive.
  std::unique_ptr<pinmgr::PinGovernor> governor_;
  fault::FaultEngine* faults_ = nullptr;
};

/// A set of nodes on one fabric, sharing the virtual clock.
class Cluster {
 public:
  explicit Cluster(CostModel costs = {}) : costs_(costs), fabric_(clock_, costs_) {}

  NodeId add_node(const NodeSpec& spec) {
    nodes_.push_back(std::make_unique<Node>(spec, clock_, costs_));
    const NodeId id = fabric_.attach(nodes_.back()->nic());
    // Disjoint span-ID streams per host: ids from different nodes never
    // collide in a merged trace export (DESIGN.md section 11).
    nodes_.back()->kernel().spans().seed_ids(0x9E3779B97F4A7C15ULL *
                                             (static_cast<std::uint64_t>(id) + 1));
    return id;
  }

  /// Pre-size the node table (cluster-scale scenarios add hundreds).
  void reserve(std::size_t n) { nodes_.reserve(n); }

  /// Add `count` identically-specced nodes; returns the first NodeId (they
  /// are contiguous). The scenario engine's bulk path.
  NodeId add_nodes(const NodeSpec& spec, std::uint32_t count) {
    reserve(nodes_.size() + count);
    NodeId first = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const NodeId id = add_node(spec);
      if (i == 0) first = id;
    }
    return first;
  }

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] Clock& clock() { return clock_; }

  /// Arm one fault engine across the whole cluster: every node's kernel and
  /// NIC plus the fabric wire. Call after all add_node() calls (nodes added
  /// later are not armed); nullptr disarms everywhere.
  void inject_faults(fault::FaultEngine* engine) {
    fabric_.set_fault_engine(engine);
    for (auto& n : nodes_) n->set_fault_engine(engine);
  }
  [[nodiscard]] const CostModel& costs() const { return costs_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  Clock clock_;
  CostModel costs_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace vialock::via
