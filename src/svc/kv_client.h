// kv_client.h - the pipelined KV client of the service tier.
//
// One KvClient is a client process on one node, holding any number of
// connections to KvServer tenants. Each connection carries a bounded
// in-flight window of requests: `window` request/response eager slots plus a
// per-slot registered value window for rendezvous transfers (so concurrent
// large-value operations on one connection never share RDMA target space).
//
// Requests are *staged* and leave on flush() - a burst of requests on one
// connection rings a single batched doorbell, the posting-side analogue of
// the server's harvested completions. Responses come back through one
// shared recv CQ drained in batches; harvest() correlates them to pending
// requests by req_id, verifies the value checksum end-to-end (inline bytes
// or the RDMA-written window), and returns KvResults.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "svc/kv_proto.h"
#include "via/node.h"
#include "via/slot_ring.h"
#include "via/vipl.h"

namespace vialock::svc {

class KvServer;

struct KvClientConfig {
  /// Request/response eager-slot bytes. Must match the server's decision
  /// boundary: keep slot_size and inline_threshold equal on both sides.
  std::uint32_t slot_size = 512;
  /// In-flight requests per connection (must be <= the server's
  /// recv_credits; connect() enforces it).
  std::uint32_t window = 4;
  /// Per-slot rendezvous window bytes (the largest value one op can move).
  std::uint32_t value_window_bytes = 16384;
  /// Values of at most this many bytes are sent/requested inline.
  std::uint32_t inline_threshold = 256;
  /// Max completions drained per CQ harvest.
  std::uint32_t completion_batch = 32;
};

/// One completed operation, as harvest() hands it back.
struct KvResult {
  std::uint64_t req_id = 0;
  std::uint64_t key = 0;
  KvOp op = KvOp::Get;
  KvStatus status = KvStatus::Ok;
  bool rendezvous = false;
  /// End-to-end checksum verdict on the value bytes (GETs; always true for
  /// PUTs - the server verified before committing).
  bool data_ok = true;
  std::uint32_t value_len = 0;
  std::uint32_t value_crc = 0;
};

struct KvClientStats {
  std::uint64_t conns_opened = 0;
  std::uint64_t conns_closed = 0;
  std::uint64_t conns_abandoned = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t responses = 0;
  std::uint64_t data_corrupt = 0;     ///< value checksum failed at the client
  std::uint64_t bad_responses = 0;    ///< unparseable / uncorrelated response
  std::uint64_t stale_completions = 0;
  std::uint64_t requests_lost = 0;    ///< pending when the conn went away
  std::uint64_t send_errors = 0;
  std::uint64_t broken_conns = 0;     ///< conns seen in a broken state
  std::uint64_t inline_bytes = 0;
  std::uint64_t rendezvous_bytes = 0;
  std::uint64_t doorbell_flushes = 0; ///< flush() calls that posted > 1
};

class KvClient {
 public:
  /// A client process named `task_name` on `node` of `cluster`.
  KvClient(via::Cluster& cluster, via::NodeId node, std::string task_name,
           KvClientConfig config);
  /// Tears down every open connection, then releases and exits the process.
  ~KvClient();

  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// Create the process, open the Vipl, create the shared CQs.
  [[nodiscard]] KStatus open();

  /// Open a connection to `tenant` on `server`: allocates and registers the
  /// slot rings and value windows, then asks the server to accept. Passes
  /// the server's admission verdict through (Again = shed). On success fills
  /// `conn_out`.
  [[nodiscard]] KStatus connect(KvServer& server, std::uint32_t tenant,
                                std::uint32_t& conn_out);

  /// Graceful client-side teardown: disconnect, deregister, recycle. The
  /// caller still tells the server (KvServer::close(server_conn(conn))).
  [[nodiscard]] KStatus close(std::uint32_t conn);

  /// Abrupt teardown: like close(), but drops pending requests on the floor
  /// (stats().requests_lost) and does NOT notify the server - the server
  /// finds out mid-pipeline, which is the point of the exercise.
  [[nodiscard]] KStatus abandon(std::uint32_t conn);

  [[nodiscard]] bool can_issue(std::uint32_t conn) const;
  /// Stage a PUT of `value` under `key`. Small values are written inline
  /// into the request slot; large ones go into the slot's value window for
  /// the server to RDMA-read. Busy when the window is full.
  [[nodiscard]] KStatus put(std::uint32_t conn, std::uint64_t key,
                            std::span<const std::byte> value,
                            std::uint64_t& req_id_out);
  /// Stage a GET of `key`; a large value lands in the slot's value window.
  [[nodiscard]] KStatus get(std::uint32_t conn, std::uint64_t key,
                            std::uint64_t& req_id_out);
  /// Ring the doorbell for everything staged on `conn` - one batched
  /// doorbell for a burst. Returns the number of requests posted.
  std::uint32_t flush(std::uint32_t conn);

  /// Drain both CQs once (batched), appending completed operations to
  /// `out`. Returns the number of results produced.
  std::uint32_t harvest(std::vector<KvResult>& out);

  /// Deterministic synthetic value bytes for (key, seed) - both sides of a
  /// test can regenerate and compare.
  static void fill_value(std::span<std::byte> out, std::uint64_t key,
                         std::uint64_t seed);

  [[nodiscard]] const KvClientStats& stats() const { return stats_; }
  [[nodiscard]] const KvClientConfig& config() const { return config_; }
  [[nodiscard]] simkern::Pid pid() const { return pid_; }
  [[nodiscard]] via::NodeId node_id() const { return node_id_; }
  [[nodiscard]] std::uint32_t inflight(std::uint32_t conn) const {
    return conns_.at(conn).inflight;
  }
  /// The server-side connection id of `conn` (for KvServer::close/abandon).
  [[nodiscard]] std::uint32_t server_conn(std::uint32_t conn) const {
    return conns_.at(conn).server_conn;
  }
  [[nodiscard]] std::uint32_t open_conns() const { return open_conns_; }

 private:
  /// One request slot's request in flight; the slot is free when req_id
  /// is 0 (request ids start at 1).
  struct Pending {
    std::uint64_t req_id = 0;
    KvOp op = KvOp::Get;
    std::uint64_t key = 0;
    bool rendezvous = false;
  };

  /// A closed connection's VI, ring and window memory (0 when a failed
  /// connect() could not map it).
  struct Spare {
    via::ViId vi = via::kInvalidVi;
    simkern::VAddr ring = 0;
    simkern::VAddr window = 0;
  };

  struct Conn {
    bool open = false;
    std::uint32_t gen = 0;
    via::ViId vi = via::kInvalidVi;
    std::uint32_t server_conn = 0;
    /// `window` request then `window` response slots; the responses posted.
    via::SlotRing rings;
    /// One value_window_bytes slot per request slot, RDMA-enabled.
    via::SlotRing window;
    std::uint32_t inflight = 0;
    std::vector<Pending> pending;  ///< indexed by request slot
    std::vector<via::Vipl::Post> staged;
  };

  [[nodiscard]] simkern::VAddr rsp_slot(const Conn& c, std::uint32_t i) const {
    return c.rings.addr(config_.window + i);
  }
  [[nodiscard]] std::uint64_t ring_bytes() const {
    return 2ULL * config_.window * config_.slot_size;
  }
  [[nodiscard]] std::uint64_t window_bytes() const {
    return static_cast<std::uint64_t>(config_.window) *
           config_.value_window_bytes;
  }
  /// The request slot holding `req_id`, or window (none does). Request id
  /// 0 marks a free slot, so slot_of(c, 0) is the first free one.
  [[nodiscard]] std::uint32_t slot_of(const Conn& c,
                                      std::uint64_t req_id) const;
  /// Stage one request: build the header, write slot contents, remember the
  /// pending op.
  [[nodiscard]] KStatus stage(std::uint32_t conn, KvRequest req,
                              std::span<const std::byte> inline_value,
                              std::uint64_t& req_id_out);
  void teardown_conn(Conn& c);
  /// Drain the send CQ (request doorbell completions; errors break conns).
  std::uint32_t harvest_sends();

  via::Cluster& cluster_;
  via::Node& node_;
  via::NodeId node_id_;
  std::string task_name_;
  KvClientConfig config_;
  KvClientStats stats_;
  simkern::Pid pid_ = simkern::kInvalidPid;
  std::unique_ptr<via::Vipl> vipl_;
  via::CqId recv_cq_ = via::kInvalidCq;
  via::CqId send_cq_ = via::kInvalidCq;
  std::vector<Conn> conns_;
  std::vector<std::uint32_t> free_conns_;
  ViConnTable vi_to_conn_;
  /// Closed connections' VIs and memory, reused by connect(): VIs are
  /// NIC-permanent and the memory stays mapped.
  std::vector<Spare> spares_;
  std::uint64_t next_req_id_ = 1;
  std::uint32_t next_gen_ = 1;
  std::uint32_t open_conns_ = 0;
  std::vector<via::Nic::CqEntry> harvest_buf_;
  std::vector<std::byte> value_buf_;
};

}  // namespace vialock::svc
