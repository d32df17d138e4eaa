// transport.h - a zero-copy message layer over the VIA substrate.
//
// Implements the three transfer protocols of the paper family (the MPI
// libraries the locking mechanism exists to serve):
//
//   Eager          - copy through pre-registered bounce buffers; one copy on
//                    each side; no registration on the critical path. Best
//                    for small messages.
//   Rendezvous     - dynamic registration: REQ control message, receiver
//                    registers its destination buffer (through the
//                    RegistrationCache) and answers with its memory handle,
//                    sender registers the source buffer and RDMA-writes the
//                    payload directly user-buffer to user-buffer (true
//                    zero-copy). Registration cost amortises via the cache.
//   Preregistered  - whole heaps registered at channel setup; pure RDMA on
//                    the critical path (the persistent-buffer upper bound).
//
// A Channel co-ordinates one sender process and one receiver process on two
// cluster nodes; the simulation is synchronous, so each transfer runs both
// sides inline against the shared virtual clock.
//
// Reliable-delivery mode (Config::reliable): the channel runs its
// protocols over *unreliable* VIs and provides delivery guarantees itself -
// every eager/control frame carries a sequence number and a checksum
// (fault::checksum32, FNV-1a over 64-bit words: a change confined to one
// word is missed with probability about 2^-32 at most - see fault.h) and
// must be acknowledged; a missing or corrupt frame (injected doorbell
// drop, wire loss, DMA bit-flip - see src/fault) triggers retransmission
// with exponential backoff up to a bounded retry budget; replayed frames are
// deduplicated by sequence number at the receiver; RDMA payloads are
// verified end-to-end against the sender's checksum and re-written on
// mismatch; an injected connection reset is repaired transparently. The
// price is visible in ChannelStats and in virtual time - that trade is
// experiment E20.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/reg_cache.h"
#include "fault/fault.h"
#include "via/node.h"
#include "via/vipl.h"

namespace vialock::msg {

enum class Protocol : std::uint8_t {
  Eager,
  Rendezvous,
  Preregistered,
  /// The "Improved Rendezvous-Protocol" of the Memory Management paper's
  /// figure 5: the receiver exports (registers) its destination buffer, the
  /// sender imports it and copies the payload with programmed I/O straight
  /// into the receiver's user memory - "the sender copies data from private
  /// memory of the sending process directly into private memory of the
  /// receiving process". No sender-side registration at all.
  PioRendezvous,
};

[[nodiscard]] constexpr std::string_view to_string(Protocol p) {
  switch (p) {
    case Protocol::Eager: return "eager";
    case Protocol::Rendezvous: return "rendezvous";
    case Protocol::Preregistered: return "preregistered";
    case Protocol::PioRendezvous: return "pio-rendezvous";
  }
  return "?";
}

struct ChannelStats {
  std::uint64_t eager_msgs = 0;
  std::uint64_t rendezvous_msgs = 0;
  std::uint64_t prereg_msgs = 0;
  std::uint64_t pio_msgs = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t window_imports = 0;  ///< PIO imports (cached thereafter)
  // Reliable-delivery mode:
  std::uint64_t frames_sent = 0;       ///< sequenced frames incl. retransmits
  std::uint64_t retries = 0;           ///< retransmissions (frames + RDMA)
  std::uint64_t send_timeouts = 0;     ///< timeout windows charged waiting
  std::uint64_t acks_received = 0;
  std::uint64_t dup_frames_dropped = 0;  ///< replays deduplicated by seq
  std::uint64_t corruptions_detected = 0;  ///< checksum mismatches caught
  std::uint64_t conn_repairs = 0;      ///< connections re-established
};

class Channel {
 public:
  /// transfer_auto() goes eager below this many bytes.
  static constexpr std::uint32_t kEagerThreshold = 4 * 1024;
  /// Reliable mode's retry budget per frame / per RDMA payload (the
  /// backoff it spends it on is kRetryTimeout / kBackoffCap, transport.cc).
  static constexpr std::uint32_t kMaxRetries = 8;

  struct Config {
    std::uint32_t eager_slot_size = 8 * 1024;
    std::uint32_t eager_credits = 16;
    core::EvictionPolicy cache_policy = core::EvictionPolicy::Lru;
    std::uint64_t user_heap_bytes = 8ULL << 20;  ///< per-process message heap
    bool preregister_heaps = false;  ///< enable the Preregistered protocol
    /// Existing processes to attach to (kInvalidPid: create fresh tasks,
    /// which the channel releases and exits on destruction). Lets several
    /// channels share one process per node (the scenario engine's tenant
    /// channels do this).
    simkern::Pid sender_pid = simkern::kInvalidPid;
    simkern::Pid receiver_pid = simkern::kInvalidPid;
    /// Reliable-delivery mode: the channel tolerates frame loss,
    /// corruption and connection resets at the cost of acknowledgement
    /// traffic, checksum computation and retransmission time.
    bool reliable = false;
  };

  Channel(via::Cluster& cluster, via::NodeId sender, via::NodeId receiver,
          Config config);
  Channel(via::Cluster& cluster, via::NodeId sender, via::NodeId receiver)
      : Channel(cluster, sender, receiver, Config{}) {}
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Build tasks, VIs, bounce buffers, caches; must be called once.
  [[nodiscard]] KStatus init();

  // --- untimed application-side helpers -----------------------------------------
  /// Place payload bytes at sender-heap offset `src_off`.
  [[nodiscard]] KStatus stage(std::uint64_t src_off,
                              std::span<const std::byte> payload);
  /// Read back bytes from receiver-heap offset `dst_off`.
  [[nodiscard]] KStatus fetch(std::uint64_t dst_off, std::span<std::byte> out);

  // --- timed transfer paths ------------------------------------------------------
  [[nodiscard]] KStatus transfer(Protocol proto, std::uint64_t src_off,
                                 std::uint64_t dst_off, std::uint32_t len);
  /// Protocol chosen by the eager threshold (the MPI/Pro-style switch).
  [[nodiscard]] KStatus transfer_auto(std::uint64_t src_off,
                                      std::uint64_t dst_off, std::uint32_t len);

  // --- introspection --------------------------------------------------------------
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] const core::RegCacheStats& sender_cache_stats() const;
  [[nodiscard]] const core::RegCacheStats& receiver_cache_stats() const;
  [[nodiscard]] simkern::Pid sender_pid() const { return src_pid_; }
  [[nodiscard]] simkern::Pid receiver_pid() const { return dst_pid_; }
  [[nodiscard]] via::Node& sender_node() { return cluster_.node(sender_id_); }
  [[nodiscard]] via::Node& receiver_node() { return cluster_.node(receiver_id_); }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct Side;  // everything per-process
  class CacheRef;  // one held registration-cache reference

  [[nodiscard]] KStatus eager(std::uint64_t src_off, std::uint64_t dst_off,
                              std::uint32_t len);
  [[nodiscard]] KStatus rendezvous(std::uint64_t src_off, std::uint64_t dst_off,
                                   std::uint32_t len);
  [[nodiscard]] KStatus preregistered(std::uint64_t src_off,
                                      std::uint64_t dst_off, std::uint32_t len);
  [[nodiscard]] KStatus pio_rendezvous(std::uint64_t src_off,
                                       std::uint64_t dst_off,
                                       std::uint32_t len);

  /// Move control/eager payload `msg` from `from`'s staging area into
  /// `to`'s next matched receive and re-arm that slot.
  [[nodiscard]] KStatus eager_push(Side& from, Side& to,
                                   std::span<const std::byte> msg);
  /// Send `len` bytes from `from`'s bounce slot 0 and harvest both
  /// completions; `slot` is the receive slot the message landed in.
  [[nodiscard]] KStatus send_slot0(Side& from, Side& to, std::uint32_t len,
                                   std::uint32_t& slot);
  /// Harvest `from`'s send completion and `to`'s receive completion of the
  /// descriptor just posted; `slot` is the receive slot it consumed.
  [[nodiscard]] KStatus harvest(Side& from, Side& to, std::uint32_t& slot);
  /// The rendezvous REQ/ACK exchange: on success `dst` holds the receiver's
  /// cache reference to the destination buffer [dst_off, dst_off + len).
  [[nodiscard]] KStatus handshake(std::uint64_t dst_off, std::uint32_t len,
                                  std::optional<CacheRef>& dst);
  /// RDMA-write a payload into the receiver and harvest its immediate-data
  /// completion (reliable_rdma in reliable mode).
  [[nodiscard]] KStatus rdma_put(const via::MemHandle& src_mh,
                                 simkern::VAddr src_addr,
                                 const via::MemHandle& dst_mh,
                                 simkern::VAddr dst_addr, std::uint32_t len);

  // --- reliable-delivery machinery (active when config_.reliable)
  /// Control-message push (counted in control_msgs): plain eager_push, or
  /// the sequenced/acked frame path in reliable mode.
  [[nodiscard]] KStatus push_ctrl(Side& from, Side& to,
                                  std::span<const std::byte> msg);
  /// Send one sequenced, checksummed frame and wait for its ack,
  /// retransmitting on loss/corruption. On success `out` holds the payload
  /// as delivered (exactly once) at the receiver.
  [[nodiscard]] KStatus reliable_push(Side& from, Side& to, std::uint8_t kind,
                                      std::span<const std::byte> payload,
                                      std::vector<std::byte>& out);
  /// Receiver (`acker`) acknowledges `seq` back to `waiter`. False when the
  /// ack itself was lost or corrupted (the data frame will be retransmitted
  /// and deduplicated).
  [[nodiscard]] bool send_ack(Side& acker, Side& waiter, std::uint32_t seq);
  /// RDMA-write with end-to-end payload verification: retries until the
  /// receiver-side checksum matches the source data or retries exhaust.
  [[nodiscard]] KStatus reliable_rdma(const via::MemHandle& src_mh,
                                      simkern::VAddr src_addr,
                                      const via::MemHandle& dst_mh,
                                      simkern::VAddr dst_addr,
                                      std::uint32_t len);
  /// Registration-cache acquire that retries injected transient failures.
  [[nodiscard]] KStatus acquire_with_retry(Side& side, simkern::VAddr addr,
                                           std::uint32_t len,
                                           via::MemHandle& out);
  [[nodiscard]] KStatus reliable_eager(std::uint64_t src_off,
                                       std::uint64_t dst_off,
                                       std::uint32_t len);
  void charge_timeout(std::uint32_t attempt);
  void repair_connection();
  /// Retransmit bookkeeping: count retry `attempt` of the frame or payload
  /// `what` (a sequence number or destination address) and trace it.
  void count_retry(Side& from, std::uint64_t what, std::uint32_t attempt);
  /// The send completion of one reliable attempt whose post returned
  /// `posted`. A failed post, a reset or a dropped doorbell charges the
  /// attempt's timeout (repairing the connection for the first two) and
  /// yields nullopt: retry.
  [[nodiscard]] std::optional<via::DescStatus> send_status(
      Side& from, KStatus posted, std::uint32_t attempt);
  /// The retry budget for `what` is spent: trace it, dump the flight
  /// recorder under `reason` and return TimedOut.
  [[nodiscard]] KStatus timed_out(Side& from, std::uint64_t what,
                                  std::string_view reason);

  via::Cluster& cluster_;
  via::NodeId sender_id_;
  via::NodeId receiver_id_;
  Config config_;
  ChannelStats stats_;

  simkern::Pid src_pid_ = simkern::kInvalidPid;
  simkern::Pid dst_pid_ = simkern::kInvalidPid;
  simkern::VAddr src_heap_ = 0;
  simkern::VAddr dst_heap_ = 0;

  std::unique_ptr<Side> src_;
  std::unique_ptr<Side> dst_;
  bool initialised_ = false;

  /// Metrics, published on the sender node's registry at init():
  /// "msg.ch.p<sender_pid>.d<receiver_pid>". Empty until then.
  std::string source_name_;
  obs::Histogram* transfer_ns_ = nullptr;  ///< bound at init()
};

}  // namespace vialock::msg
