// kv_server.h - the zero-copy KV/RPC service tier over VIA.
//
// A KvServer is the "thousands of connections" consumer the paper's locking
// mechanism exists for: a storage daemon holding one VI per client
// connection, every connection's request/response slot rings pinned and
// registered, large values moving zero-copy between client windows and the
// per-tenant value arena. Three properties the lower layers provide come
// together here:
//
//   * governed admission - each tenant is a PinGovernor quota subject; the
//     server probes admission_headroom() before doing a new connection's
//     registration work, shedding BestEffort connections under pin pressure
//     while Guaranteed tenants keep their reserved budget (and get
//     cooperative reclaim run on their behalf by the charge path);
//   * batched completions - requests from every connection funnel into one
//     recv CQ drained with Nic::poll_cq (one PCI status read per harvest,
//     not per request), and replies to the same VI leave behind a single
//     doorbell (one Vipl::post_send list) - E18's completion modes, extended
//     to a server that could not afford per-operation MMIO at scale;
//   * zero-copy rendezvous - small values ride inline in the eager slots,
//     large ones move with one RDMA write (GET) / read (PUT) between the
//     client's registered window and the arena, whose extents are registered
//     on the fly through a RegistrationCache ("the buffers must be
//     registered on the fly... remedied by caching registered regions").
//
// Teardown discipline (the part regression tests pin down): close() and
// abandon() release a connection's slot-ring registration eagerly and flush
// the governor's deferred deregistrations, so an abrupt mid-pipeline
// disconnect strands neither pinned frames nor governor charge; stale
// completions of a dead connection are recognised by generation and dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/reg_cache.h"
#include "pinmgr/pin_governor.h"
#include "svc/kv_proto.h"
#include "via/node.h"
#include "via/slot_ring.h"
#include "via/vipl.h"

namespace vialock::svc {

struct KvServerConfig {
  /// Request/response eager-slot bytes (headers + inline values).
  std::uint32_t slot_size = 512;
  /// Pipeline depth per connection: posted request slots (= response slots).
  std::uint32_t recv_credits = 8;
  /// Max completions drained per CQ harvest (the batch size).
  std::uint32_t completion_batch = 32;
  /// Values of at most this many bytes ride inline; larger ones rendezvous.
  std::uint32_t inline_threshold = 256;
  /// Per-tenant value arena bytes (bump-allocated, slot-reusing overwrite).
  std::uint64_t arena_bytes = 1ULL << 20;
};

struct KvServerStats {
  // Connection lifecycle.
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_shed = 0;      ///< BestEffort refused at the headroom probe
  std::uint64_t conns_closed = 0;    ///< graceful close()
  std::uint64_t conns_abandoned = 0; ///< abrupt teardown, resources reclaimed
  std::uint64_t admission_rejected = 0;  ///< ring registration refused
  // Request execution.
  std::uint64_t requests = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t not_found = 0;
  std::uint64_t bad_requests = 0;      ///< header failed magic/length checks
  std::uint64_t corrupt_payloads = 0;  ///< value checksum mismatch
  std::uint64_t arena_full = 0;
  // Data-path byte accounting (the zero-copy evidence).
  std::uint64_t inline_bytes = 0;      ///< value bytes through eager slots
  std::uint64_t eager_copies = 0;      ///< slot<->arena copies performed
  std::uint64_t rendezvous_ops = 0;
  std::uint64_t rendezvous_bytes = 0;  ///< value bytes moved by RDMA
  std::uint64_t rendezvous_failed = 0;
  // Batching.
  std::uint64_t batches = 0;              ///< service cycles that found work
  std::uint64_t batched_completions = 0;  ///< completions drained in batches
  std::uint64_t batched_replies = 0;      ///< replies in lists longer than 1
  // Hygiene.
  std::uint64_t requests_dropped = 0;  ///< stale completions of dead conns
  std::uint64_t send_errors = 0;       ///< reply/RDMA completed with an error
};

class KvServer {
 public:
  struct TenantConfig {
    std::string name = "tenant";
    std::uint32_t quota_pages = 1024;
    pinmgr::QosTier tier = pinmgr::QosTier::BestEffort;
  };

  /// `node` must already be part of `cluster` (its fabric carries the
  /// connections). Call init() before anything else.
  KvServer(via::Cluster& cluster, via::NodeId node, KvServerConfig config);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Create the shared CQs and validate the configuration.
  [[nodiscard]] KStatus init();

  /// Add a tenant: its server-side process, Vipl, value arena and
  /// registration cache; registers its quota/tier with the node's governor
  /// (when one is enabled). Returns the tenant index.
  [[nodiscard]] std::uint32_t add_tenant(const TenantConfig& cfg);

  /// Accept a connection from `client_vi` on `client_node` into `tenant`.
  /// Probes the governor's admission headroom first: a BestEffort tenant
  /// without room for the slot rings is shed (Again, stats().conns_shed)
  /// before any registration work. On success fills `conn_out`.
  [[nodiscard]] KStatus accept(std::uint32_t tenant, via::NodeId client_node,
                               via::ViId client_vi, std::uint32_t& conn_out);

  /// Graceful teardown: disconnect, deregister the slot rings, recycle the
  /// VI and ring memory.
  [[nodiscard]] KStatus close(std::uint32_t conn);

  /// Abrupt teardown (peer vanished mid-pipeline): like close(), but also
  /// flushes the governor's deferred deregistrations so nothing the dead
  /// connection pinned outlives it, and discards its posted descriptors.
  /// service() invokes this automatically when a reply completes with
  /// ErrDisconnected. Safe on an already-dead connection (no-op).
  void abandon(std::uint32_t conn);

  /// One batched service cycle: harvest up to completion_batch requests from
  /// the shared recv CQ, execute them, send the replies (per-VI batched
  /// doorbells), recycle reply slots from the send CQ. Returns the number of
  /// requests executed.
  std::uint32_t service();

  /// service() until both CQs are empty (end-of-run settling).
  void drain();

  /// Close every connection, flush every tenant's cache and the governor,
  /// release and exit every tenant process - after this the node audits
  /// clean (zero pinned frames, zero governor charge, the tenants' ring and
  /// arena frames freed). Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] const KvServerStats& stats() const { return stats_; }
  [[nodiscard]] const KvServerConfig& config() const { return config_; }
  [[nodiscard]] via::NodeId node_id() const { return node_id_; }
  [[nodiscard]] std::uint32_t open_conns() const { return open_conns_; }
  [[nodiscard]] std::size_t tenant_keys(std::uint32_t tenant) const {
    return tenants_.at(tenant)->store.size();
  }
  /// Largest value the configuration can serve inline.
  [[nodiscard]] std::uint32_t inline_capacity() const;

 private:
  struct Value {
    simkern::VAddr addr = 0;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
  };

  /// A closed connection's VI and ring memory (0 when a failed accept could
  /// not map it).
  struct Spare {
    via::ViId vi = via::kInvalidVi;
    simkern::VAddr ring = 0;
  };

  struct Tenant {
    std::string name;
    pinmgr::QosTier tier = pinmgr::QosTier::BestEffort;
    simkern::Pid pid = simkern::kInvalidPid;
    std::unique_ptr<via::Vipl> vipl;
    std::unique_ptr<core::RegistrationCache> cache;
    simkern::VAddr arena = 0;
    std::uint64_t arena_off = 0;  ///< bump pointer
    std::unordered_map<std::uint64_t, Value> store;
    // Churn recycling: VIs are NIC-permanent and ring memory stays mapped,
    // so both are reused rather than ever-growing allocations.
    std::vector<Spare> spares;
  };

  struct Conn {
    bool open = false;
    std::uint32_t tenant = 0;
    std::uint32_t gen = 0;  ///< distinguishes reincarnations on a reused VI
    via::ViId vi = via::kInvalidVi;
    /// Request slots (posted) then response slots, in one registration.
    via::SlotRing ring;
    std::uint32_t next_rsp = 0;      ///< round-robin reply slot cursor
    std::uint32_t rsp_inflight = 0;  ///< replies posted, completion not seen
  };

  /// A reply staged during a service cycle, flushed per-VI in one doorbell.
  struct StagedReply {
    std::uint32_t conn = 0;
    std::uint32_t gen = 0;  ///< stale replies of a died connection are dropped
    std::uint32_t slot = 0;
    std::uint32_t len = 0;
  };

  [[nodiscard]] Tenant& tenant_of(const Conn& c) { return *tenants_[c.tenant]; }
  [[nodiscard]] simkern::VAddr rsp_slot(const Conn& c, std::uint32_t i) const {
    return c.ring.addr(config_.recv_credits + i);
  }
  [[nodiscard]] std::uint64_t ring_bytes() const {
    return 2ULL * config_.recv_credits * config_.slot_size;
  }

  /// Conn for a CQ entry, or nullptr (dead / reincarnated connection).
  [[nodiscard]] Conn* conn_for(via::ViId vi, std::uint64_t cookie);

  /// One service cycle; fills `harvested` with the recv completions drained
  /// (so drain() can tell "no work executed" from "queue empty").
  std::uint32_t service_once(std::uint32_t& harvested);
  /// Execute one request from `slot`; stages the reply. Returns false when
  /// the header was unparseable (no reply possible).
  bool execute(std::uint32_t conn_id, std::uint32_t slot,
               std::uint32_t transferred, std::vector<StagedReply>& replies);
  void do_get(Conn& c, const KvRequest& req, KvResponse& rsp,
              simkern::VAddr rsp_addr);
  void do_put(Conn& c, const KvRequest& req, simkern::VAddr slot_addr,
              KvResponse& rsp);
  /// Bump-allocate `len` arena bytes for `key`. `allow_reuse` lets an
  /// overwrite land in the old value's space when it fits (only safe once
  /// the new bytes are already verified). 0 on arena exhaustion.
  [[nodiscard]] simkern::VAddr arena_alloc(Tenant& t, std::uint64_t key,
                                           std::uint32_t len, bool allow_reuse);
  /// Post one RDMA leg and return its completion status (the fabric is
  /// synchronous, so it is on the send CQ by the time the post returns).
  [[nodiscard]] via::DescStatus run_rdma(Conn& c, bool write,
                                         const via::MemHandle& local_mh,
                                         simkern::VAddr local_addr,
                                         std::uint32_t len,
                                         const via::MemHandle& remote_mh,
                                         simkern::VAddr remote_addr);
  /// Drain the send CQ: recycle reply slots, record RDMA leg results,
  /// abandon connections whose replies bounced. Returns entries drained.
  std::uint32_t harvest_sends();
  void flush_replies(std::vector<StagedReply>& replies);
  /// Shared teardown of close()/abandon(). `abrupt` adds the prompt
  /// governor flush and discards posted descriptors.
  void teardown_conn(Conn& c, bool abrupt);

  via::Cluster& cluster_;
  via::Node& node_;
  via::NodeId node_id_;
  KvServerConfig config_;
  KvServerStats stats_;
  obs::Histogram& op_ns_;  ///< per-request service time (virtual)
  via::CqId recv_cq_ = via::kInvalidCq;
  via::CqId send_cq_ = via::kInvalidCq;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<Conn> conns_;
  std::vector<std::uint32_t> free_conns_;
  ViConnTable vi_to_conn_;
  /// The completion status of the RDMA leg in flight (cookie kRdmaBit),
  /// filled by harvest_sends; run_rdma posts one leg at a time.
  std::optional<via::DescStatus> rdma_done_;
  std::uint32_t next_gen_ = 1;
  std::uint32_t open_conns_ = 0;
  bool shut_down_ = false;
  // Scratch buffers (hot path, avoid per-request allocation).
  std::vector<via::Nic::CqEntry> harvest_buf_;
  std::vector<via::Nic::CqEntry> send_buf_;
  std::vector<std::byte> value_buf_;
  std::vector<StagedReply> replies_;  ///< one service cycle's replies
  std::vector<const StagedReply*> flush_order_;  ///< flush_replies' grouping
  std::vector<via::Vipl::Post> flush_posts_;
};

}  // namespace vialock::svc
