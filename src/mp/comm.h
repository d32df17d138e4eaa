// comm.h - an MPI-flavoured message-passing layer with real matching
// semantics, built directly on the VIA provider library.
//
// This is the layer the paper's introduction argues about: "MPI cannot
// predict [the buffer addresses]... hence the buffers must be registered on
// the fly". The companion papers in the collection supply the design
// vocabulary reproduced here:
//   * tag + source matching with MPI_ANY_SOURCE / MPI_ANY_TAG, a posted-
//     receive queue and an unexpected-message queue (the multidevice paper's
//     AnyQueue problem space);
//   * an eager protocol for short messages (one copy into a pre-registered
//     bounce slot per side) and a rendezvous protocol for long ones
//     (registration through the cache + RDMA *pull* by the receiver, true
//     zero-copy);
//   * nonblocking isend/irecv with request objects and test/wait.
//
// The simulation is single-threaded: the Comm object orchestrates every
// rank. progress() drains NIC completions into the matching engine; isend/
// irecv/test/wait all call it, mirroring MPICH's "communication progresses
// only when an MPI function is called".
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/reg_cache.h"
#include "via/node.h"
#include "via/vipl.h"

namespace vialock::mp {

using Rank = std::uint32_t;
inline constexpr std::int32_t kAnyTag = -1;
inline constexpr std::int32_t kAnySource = -1;

using ReqId = std::uint64_t;
inline constexpr ReqId kInvalidReq = 0;

struct MpStatus {
  Rank source = 0;
  std::int32_t tag = 0;
  std::uint32_t len = 0;
};

struct CommStats {
  std::uint64_t eager_sends = 0;
  std::uint64_t rendezvous_sends = 0;
  std::uint64_t unexpected_msgs = 0;  ///< arrived before a matching receive
  std::uint64_t expected_msgs = 0;    ///< matched a posted receive on arrival
  std::uint64_t rdma_pulls = 0;
  std::uint64_t local_msgs = 0;       ///< delivered over a shared-memory link
  std::uint64_t local_pulls = 0;      ///< large local messages (shm pipeline)
  std::uint64_t indirect_sends = 0;   ///< messages that needed routing
  std::uint64_t indirect_forwards = 0;  ///< hops executed by intermediates
  std::uint64_t bytes = 0;
};

class Comm {
 public:
  /// Messages of at most this many bytes (that fit a slot) go eager.
  static constexpr std::uint32_t kEagerThreshold = 4 * 1024;

  struct Config {
    std::uint32_t eager_slot_size = 8 * 1024;
    std::uint32_t eager_credits = 8;     ///< pre-posted receives per VI
    std::uint32_t unexpected_slots = 64; ///< per-rank unexpected arena slots
    std::uint64_t heap_bytes = 4ULL << 20;
    /// Multidevice routing (the collection's first paper): ranks that share
    /// a node communicate over a shared-memory link instead of the NIC; the
    /// "Connectiontable" decides per peer at init time.
    bool shm_for_local = true;
    /// Rank pairs WITHOUT a direct link (unordered). Traffic between them is
    /// routed through intermediate ranks using system messages - the
    /// "indirekte Kommunikation" design of the multidevice paper: one-sided
    /// system messages with reserved tags, an implicit receive on the
    /// intermediate node, and an acknowledgement chain back to the sender.
    std::vector<std::pair<Rank, Rank>> no_direct_link;
    /// Create each pair's link on first send instead of all N*(N-1)/2 at
    /// init() - required for cluster-scale scenarios where most pairs never
    /// talk. Incompatible with no_direct_link (init returns Inval): lazy
    /// creation makes every pair direct, so there is nothing to route.
    bool lazy_links = false;
  };

  Comm(via::Cluster& cluster, std::vector<via::NodeId> nodes, Config config);
  Comm(via::Cluster& cluster, std::vector<via::NodeId> nodes)
      : Comm(cluster, std::move(nodes), Config{}) {}
  ~Comm();

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] KStatus init();
  [[nodiscard]] Rank size() const { return static_cast<Rank>(nodes_.size()); }

  // --- application data (per-rank heaps) -----------------------------------------
  [[nodiscard]] KStatus stage(Rank rank, std::uint64_t offset,
                              std::span<const std::byte> data);
  [[nodiscard]] KStatus fetch(Rank rank, std::uint64_t offset,
                              std::span<std::byte> out);

  // --- nonblocking point-to-point ---------------------------------------------
  /// Post a send of `len` bytes at `rank`'s heap `offset` to `dest`.
  /// User tags must be >= 0 (negative tags are reserved for collectives and
  /// system messages, as in MPI); violating that returns kInvalidReq.
  [[nodiscard]] ReqId isend(Rank rank, Rank dest, std::int32_t tag,
                            std::uint64_t offset, std::uint32_t len);
  /// Post a receive into `rank`'s heap `offset` (capacity `max_len`) from
  /// `source` (or kAnySource) with `tag` (or kAnyTag).
  [[nodiscard]] ReqId irecv(Rank rank, std::int32_t source, std::int32_t tag,
                            std::uint64_t offset, std::uint32_t max_len);

  /// Library-internal variants that may use reserved (negative) tags; the
  /// collectives in mp/collectives.h are built on these.
  [[nodiscard]] ReqId isend_internal(Rank rank, Rank dest, std::int32_t tag,
                                     std::uint64_t offset, std::uint32_t len);
  [[nodiscard]] ReqId irecv_internal(Rank rank, std::int32_t source,
                                     std::int32_t tag, std::uint64_t offset,
                                     std::uint32_t max_len);

  /// True when the request has completed; fills `status` for receives.
  [[nodiscard]] bool test(ReqId req, MpStatus* status = nullptr);
  /// Drive progress until the request completes; false if it cannot (error).
  [[nodiscard]] bool wait(ReqId req, MpStatus* status = nullptr);

  // --- blocking convenience -----------------------------------------------------
  /// Blocking send/recv. The simulation is single-threaded, so "blocking"
  /// means: drive progress once and report. A call that cannot complete
  /// without a remote operation that has not been issued yet (e.g. a
  /// rendezvous send whose receive is not posted, or a recv whose message
  /// has not been sent) returns Again - the situation that would deadlock a
  /// real MPI program too. Sequence isend/irecv + wait for such patterns.
  [[nodiscard]] KStatus send(Rank rank, Rank dest, std::int32_t tag,
                             std::uint64_t offset, std::uint32_t len);
  [[nodiscard]] KStatus recv(Rank rank, std::int32_t source, std::int32_t tag,
                             std::uint64_t offset, std::uint32_t max_len,
                             MpStatus* status = nullptr);

  /// Nonblocking probe: is a matching message available at `rank`?
  [[nodiscard]] bool iprobe(Rank rank, std::int32_t source, std::int32_t tag,
                            MpStatus* status = nullptr);

  /// Drain NIC completions into the matching engines of every rank.
  void progress();

  [[nodiscard]] const CommStats& stats() const { return stats_; }
  [[nodiscard]] simkern::Pid rank_pid(Rank r) const;
  /// The simulated kernel hosting `r` (ranks on one node share a kernel).
  /// Collectives and tests reach each rank's observability surface through
  /// this; the communicator's own metrics live on rank 0's registry.
  [[nodiscard]] simkern::Kernel& rank_kernel(Rank r) {
    return cluster_.node(nodes_[r]).kernel();
  }
  /// Connectiontable lookup: does the pair communicate over shared memory?
  [[nodiscard]] bool uses_shm(Rank a, Rank b) const;
  /// Connectiontable lookup: is there a direct link at all?
  [[nodiscard]] bool has_direct_link(Rank a, Rank b) const;
  /// The next hop `from` uses toward `to` (== `to` when direct;
  /// kNoRoute when unreachable).
  static constexpr Rank kNoRoute = static_cast<Rank>(-1);
  [[nodiscard]] Rank route_next(Rank from, Rank to) const;

 private:
  struct Side;     // per-rank state (Vipl, cache, queues, arena)
  struct Pending;  // request bookkeeping

  enum class MsgKind : std::uint32_t { Eager, RndzReq, RndzFin };

  /// Reserved system-message tags (never visible to matching).
  static constexpr std::int32_t kSysFwdTag = -2;
  static constexpr std::int32_t kSysAckTag = -3;

  /// Inner header of a routed (indirect) message.
  struct SysEnvelope {
    Rank final_dest = 0;
    Rank orig_src = 0;
    std::int32_t orig_tag = 0;
    std::uint32_t len = 0;          ///< user payload bytes
    ReqId sender_req = kInvalidReq; ///< completed by the end-to-end ACK
  };

  /// Wire header prefixed to every eager slot payload.
  struct WireHeader {
    MsgKind kind = MsgKind::Eager;
    std::int32_t tag = 0;
    Rank src_rank = 0;
    std::uint32_t len = 0;          ///< payload (eager) or message (rndz) size
    ReqId sender_req = kInvalidReq; ///< rendezvous: sender's request to FIN
    via::MemHandle handle;          ///< rendezvous: sender's registration
    simkern::VAddr addr = 0;        ///< rendezvous: source address
    /// In-band trace context (DESIGN.md section 11): the sending rank's
    /// ambient context travels inside the header bytes, so the receiving
    /// rank's spans join the sender's causal chain without side channels.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
  };

  /// An arrived-but-unmatched message at a rank.
  struct UnexpectedMsg {
    WireHeader header;
    std::uint32_t arena_slot = 0;  ///< eager payload location (Eager only)
  };

  [[nodiscard]] KStatus push_wire(Rank from, Rank to, const WireHeader& header,
                                  std::uint64_t payload_offset);
  /// Like push_wire, but the payload comes from an absolute address in
  /// `from`'s address space (used for forwarding out of landing slots).
  [[nodiscard]] KStatus push_raw(Rank from, Rank to, const WireHeader& header,
                                 simkern::VAddr src_addr,
                                 std::uint32_t payload_len);
  /// System-message handler (forward / ack); true if the header was one.
  [[nodiscard]] bool handle_system(Rank rank, const WireHeader& header,
                                   simkern::VAddr slot_addr);
  /// Build the (i, j) link if it does not exist yet: a shared-memory
  /// segment for node-local pairs, otherwise a VI pair with pre-posted
  /// credits. Idempotent; init() calls it eagerly for every pair unless
  /// Config::lazy_links defers it to the first send.
  [[nodiscard]] KStatus ensure_link(Rank i, Rank j);
  [[nodiscard]] ReqId isend_indirect(Rank rank, Rank dest, std::int32_t tag,
                                     std::uint64_t offset, std::uint32_t len);
  /// Drain one rank's incoming links; true if anything was processed.
  [[nodiscard]] bool drain(Rank rank);
  void process_arrival(Rank rank, const WireHeader& header,
                       simkern::VAddr slot_addr);
  [[nodiscard]] bool header_matches(const WireHeader& h, std::int32_t source,
                                    std::int32_t tag) const;
  /// Register a new request of `rank`'s, numbered `id`.
  [[nodiscard]] Pending& new_request(Rank rank, ReqId& id);
  /// Deliver a matched message into `recv`: an eager payload from
  /// `eager_src` (a landing slot or the unexpected arena), a long one by the
  /// local or RDMA pull and then the FIN.
  [[nodiscard]] KStatus deliver(Rank rank, const WireHeader& msg,
                                simkern::VAddr eager_src, Pending& recv);
  [[nodiscard]] KStatus deliver_rendezvous(Rank rank, const WireHeader& req,
                                           Pending& recv);
  /// Large local message: pipeline copies through the link's shm bounce.
  [[nodiscard]] KStatus deliver_local_pull(Rank rank, const WireHeader& req,
                                           Pending& recv);

  via::Cluster& cluster_;
  std::vector<via::NodeId> nodes_;
  Config config_;
  CommStats stats_;

  std::vector<std::unique_ptr<Side>> sides_;
  std::map<ReqId, std::unique_ptr<Pending>> requests_;
  /// In-flight slot indices per local (shm) link, one queue per direction
  /// (index 0: lower rank -> higher rank). Stands in for the in-segment
  /// flag words; the data itself travels through the shared frames.
  std::map<std::pair<Rank, Rank>,
           std::unique_ptr<std::array<std::deque<std::uint32_t>, 2>>>
      local_queues_;
  /// next_hop_[from][to]: first hop on the route (== to when direct).
  std::vector<std::vector<Rank>> next_hop_;
  ReqId next_req_ = 1;
  bool initialised_ = false;
};

}  // namespace vialock::mp
