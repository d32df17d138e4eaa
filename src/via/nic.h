// nic.h - the simulated VIA NIC.
//
// Register-level model of a native VIA network interface (Giganet-cLAN /
// VIA-capable PCI-SCI bridge class): virtual interfaces with work queues and
// doorbells, a TPT, and a DMA engine. The crucial fidelity point: the DMA
// engine addresses *physical frames* of the host's memory through the TPT.
// It has no view of page tables, so when the swapper relocates a page that a
// broken locking policy failed to pin, the NIC keeps using the old frame -
// silently, with no fault - which is exactly the behaviour the paper's
// locktest experiment exposes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "simkern/kernel.h"
#include "util/fifo.h"
#include "via/descriptor.h"
#include "via/tpt.h"
#include "via/vi.h"

namespace vialock::via {

class Fabric;

struct NicConfig {
  std::uint32_t tpt_entries = 8192;  ///< 32 MB of registerable memory
  std::uint32_t max_vis = 256;
  /// Largest superpage order the TPT supports: one entry may cover up to
  /// 2^max_superpage_order contiguous identically-tagged frames (tpt.h).
  /// 0 forces the classic one-entry-per-page layout (the paper's model);
  /// tests asserting per-page TPT geometry pin it to 0 via test::small_node.
  std::uint8_t max_superpage_order = 9;
};

struct NicStats {
  std::uint64_t doorbells = 0;
  std::uint64_t sends_posted = 0;
  std::uint64_t recvs_posted = 0;
  std::uint64_t sends_ok = 0;
  std::uint64_t recvs_ok = 0;
  std::uint64_t rdma_writes = 0;
  std::uint64_t rdma_reads = 0;
  std::uint64_t protection_errors = 0;
  std::uint64_t no_recv_desc = 0;
  std::uint64_t length_errors = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t tpt_writes = 0;
  // Batched submission/completion (E18's modes extended, experiment E24):
  std::uint64_t doorbell_batches = 0;  ///< burst post_send/post_recv rings
  std::uint64_t cq_harvests = 0;       ///< batched CQ polls issued
  std::uint64_t cq_harvested = 0;      ///< entries drained by batched polls
  // Injected hardware faults (fault::FaultEngine hooks):
  std::uint64_t doorbells_dropped = 0;  ///< descriptor silently lost
  std::uint64_t dma_corruptions = 0;    ///< payload bit-flip in flight
  std::uint64_t dma_delays = 0;         ///< DMA engine latency spike
  std::uint64_t tpt_corruptions = 0;    ///< TPT entry written with bad pfn
  std::uint64_t tpt_evictions = 0;      ///< TPT entry written invalid
};

/// The TPT attributes an access to registered memory must find: local DMA
/// and PIO need a valid, identically-tagged entry; an RDMA write or read
/// also needs the entry's rdma_write_enable / rdma_read_enable attribute.
enum class TptAccess : std::uint8_t { Local, RdmaWrite, RdmaRead };

class Nic {
 public:
  Nic(simkern::Kernel& host, Clock& clock, const CostModel& costs,
      NicConfig config = {});
  ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  // --- fabric attachment -----------------------------------------------------
  void attach(Fabric* fabric, NodeId node_id) {
    fabric_ = fabric;
    node_id_ = node_id;
  }
  [[nodiscard]] NodeId node_id() const { return node_id_; }

  // --- VI management -----------------------------------------------------------
  [[nodiscard]] ViId create_vi(ProtectionTag tag, bool reliable = true);
  [[nodiscard]] Vi& vi(ViId id);
  [[nodiscard]] const Vi& vi(ViId id) const;
  [[nodiscard]] bool vi_exists(ViId id) const;

  // --- work queues (doorbell-triggered, executed synchronously) ----------------
  /// Post a list of send descriptors behind ONE doorbell ring; the engine
  /// fetches (dma_startup apiece) and executes each in order before
  /// post_send returns. A list of one is a plain post. A longer list is a
  /// burst, traced under its own span name and counted in doorbell_batches
  /// and descs_per_ring: the doorbell amortises across it
  /// - the posting-side analogue of E18's completion modes. A dropped
  /// doorbell (NicDoorbell fault, checked per descriptor) loses exactly the
  /// descriptor whose fetch it covered - the chain is linked in host
  /// memory, so the engine resynchronises on the next entry and the rest of
  /// the list still posts. An empty list is a free no-op.
  [[nodiscard]] KStatus post_send(ViId id, std::span<Descriptor> descs);
  /// Arm a list of receive descriptors behind ONE doorbell ring. Receive
  /// descriptors are only fetched on packet arrival, so nothing executes
  /// here; a longer list is counted as a burst as for post_send.
  [[nodiscard]] KStatus post_recv(ViId id, std::span<Descriptor> descs);
  [[nodiscard]] std::optional<Descriptor> poll_send(ViId id);
  [[nodiscard]] std::optional<Descriptor> poll_recv(ViId id);
  /// Drop everything queued on the VI - posted receives and both completion
  /// queues - and free the rings' storage.
  void clear_queues(ViId id);

  // --- completion queues (VipCreateCQ / VipCQDone) ------------------------------
  struct CqEntry {
    ViId vi = kInvalidVi;
    bool is_send = false;
    Descriptor desc;
  };
  static_assert(sizeof(CqEntry) == 64);
  [[nodiscard]] CqId create_cq();
  /// Route a VI's send / receive completions to a CQ (before any traffic).
  [[nodiscard]] KStatus attach_send_cq(ViId vi, CqId cq);
  [[nodiscard]] KStatus attach_recv_cq(ViId vi, CqId cq);
  [[nodiscard]] std::optional<CqEntry> poll_cq(CqId cq);
  /// Drain up to `max` completions with ONE PCI status read (the CQ tail is
  /// read once; entries behind it live in host-memory shadow copies).
  /// Appends to `out`, returns the number drained - the completion-side
  /// amortisation a server harvesting thousands of connections relies on.
  [[nodiscard]] std::uint32_t poll_cq_batch(CqId cq, std::uint32_t max,
                                            std::vector<CqEntry>& out);

  // --- TPT (programmed by the kernel agent over PCI) ----------------------------
  [[nodiscard]] Tpt& tpt() { return tpt_; }
  [[nodiscard]] const Tpt& tpt() const { return tpt_; }
  /// Write one TPT entry, charging the PCI register-write cost.
  void program_tpt(TptIndex idx, const TptEntry& e);

  // --- region table: what a descriptor's handle resolves to ---------------------
  /// Record `mh`'s region under its TPT base. The kernel agent calls this
  /// when it programs the region's TPT entries, and clear_region before it
  /// releases them, so a handle resolves exactly while its entries are held.
  /// Storage grows to the highest base ever set, as the TPT's does.
  void set_region(const MemHandle& mh);
  void clear_region(TptIndex base);
  /// The region at `handle`; an empty record (kInvalidTag) when none is.
  [[nodiscard]] RegionRecord region(TptIndex handle) const {
    return handle < regions_.size() ? regions_[handle] : RegionRecord{};
  }

  // --- raw local DMA (used by locktest step 5: the kernel agent pokes the
  //     physical page the NIC believes belongs to the registration) ------------
  /// Only `mh.tpt_base` and `mh.tag` count: the region is resolved from the
  /// region table, so a copy of the handle with widened geometry reaches no
  /// further than the registration. Fault when the access fails.
  [[nodiscard]] KStatus dma_write_local(const MemHandle& mh, simkern::VAddr addr,
                                        std::span<const std::byte> data);
  [[nodiscard]] KStatus dma_read_local(const MemHandle& mh, simkern::VAddr addr,
                                       std::span<std::byte> out);

  /// The one TPT walk every DMA and PIO access goes through. Resolves
  /// `handle` in the region table and copies between `bytes` and the range
  /// [addr, addr + bytes.size()) of that region: a span of const bytes is
  /// written into the frames, a mutable span is filled from them. Fails
  /// when the range lies outside the region, the region's tag is not `tag`,
  /// or a page does not translate under `access`; it stops at that page, so
  /// part of the copy may have happened. Counts no statistic and charges no
  /// virtual time: callers do both.
  template <typename Byte>
  [[nodiscard]] bool tpt_copy(TptIndex handle, simkern::VAddr addr,
                              std::span<Byte> bytes, ProtectionTag tag,
                              TptAccess access);

  // --- fabric-facing receive path ----------------------------------------------
  /// One packet on the wire. Its payload is a view of the sending NIC's
  /// staging buffer, which holds the bytes of one packet at a time: a Send
  /// or RdmaWrite gathers into it, and an RdmaRead request carries it, sized
  /// to the read, for the responder to fill. The view stays valid because
  /// Fabric::transmit delivers inline - the gather, the wire and the remote
  /// scatter (or, for a read, the read-back and the local scatter) run in
  /// one call, and nothing between them posts on the sending NIC.
  struct Packet {
    NodeId src_node = kInvalidNode;
    ViId src_vi = kInvalidVi;
    ViId dst_vi = kInvalidVi;
    DescOp op = DescOp::Send;
    std::span<std::byte> payload;
    RemoteSegment remote;  ///< RDMA target / source
    std::uint32_t immediate = 0;
    bool has_immediate = false;
  };

  /// Deliver a packet arriving from the wire. Returns the status the sender's
  /// descriptor completes with; an RdmaRead fills `pkt.payload`.
  [[nodiscard]] DescStatus deliver(Packet& pkt);

  [[nodiscard]] const NicStats& stats() const { return stats_; }
  [[nodiscard]] const NicConfig& config() const { return config_; }
  [[nodiscard]] simkern::Kernel& host() { return host_; }

  /// Arm fault injection on the hardware paths: NicDoorbell (post_send
  /// descriptors silently lost), NicDma (payload bit-flips / latency spikes)
  /// and TptWrite (entries corrupted or evicted as they are programmed).
  void set_fault_engine(fault::FaultEngine* engine) { faults_ = engine; }

 private:
  /// Scatter `data` (at most `seg.length` bytes) into `seg` under `tag`:
  /// one TPT walk and one DMA engine start-up. No data touches nothing and
  /// charges nothing.
  [[nodiscard]] bool scatter(const DataSegment& seg, ProtectionTag tag,
                             std::span<const std::byte> data);
  void complete_send(Vi& v, Descriptor desc, DescStatus st);
  void complete_recv(Vi& v, Descriptor desc);
  void break_vi(Vi& v);
  /// The NicDoorbell fault check for one descriptor fetch: true (and
  /// counted) when the doorbell write is lost.
  [[nodiscard]] bool doorbell_dropped();
  /// poll_send / poll_recv on the VI's `completed` queue.
  [[nodiscard]] std::optional<Descriptor> poll_completed(
      ViId id, Fifo<Descriptor> Vi::*completed);
  /// Fetch-and-execute one posted send descriptor (everything post_send does
  /// after the doorbell ring and fault check): gather, transmit, complete.
  void submit_send(ViId id, Descriptor desc);

  simkern::Kernel& host_;
  Clock& clock_;
  const CostModel& costs_;
  NicConfig config_;
  Tpt tpt_;
  std::vector<Vi> vis_;
  /// Indexed by TPT base; entries [0, highest base set].
  std::vector<RegionRecord> regions_;
  std::vector<Fifo<CqEntry>> cqs_;
  /// The payload of the packet in flight (Packet).
  std::vector<std::byte> staging_;
  Fabric* fabric_ = nullptr;
  NodeId node_id_ = kInvalidNode;
  fault::FaultEngine* faults_ = nullptr;
  NicStats stats_;
  // Payload size distribution of packets delivered by the DMA engine.
  obs::Histogram& dma_bytes_;
  // Descriptors announced per batched doorbell ring (send + recv bursts).
  obs::Histogram& descs_per_ring_;
};

}  // namespace vialock::via
