#include "msg/transport.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <map>
#include <vector>

#include "msg/wire.h"
#include "via/remote_window.h"
#include "via/slot_ring.h"

namespace vialock::msg {

using simkern::VAddr;
using via::MemHandle;

namespace {

/// Rendezvous control messages (sent through the eager path).
struct RndzReq {
  std::uint32_t len = 0;
  std::uint64_t dst_off = 0;
};

struct RndzAck {
  MemHandle dst_handle;  ///< POD handle, "communicated out of band"
  VAddr dst_addr = 0;
};

// --- reliable-delivery frame format ----------------------------------------
// Every sequenced frame starts with this header; the checksum covers the
// payload, the header fields themselves are validated by magic + length so a
// bit-flip anywhere in the frame is caught.
inline constexpr std::uint32_t kFrameMagic = 0x56494146u;  // "VIAF"
inline constexpr std::uint8_t kFrameData = 1;
inline constexpr std::uint8_t kFrameCtrl = 2;
inline constexpr std::uint8_t kFrameAck = 3;

/// Base ack timeout; it doubles per retry, at most kBackoffCap times.
inline constexpr Nanos kRetryTimeout = 100'000;
inline constexpr std::uint32_t kBackoffCap = 6;

struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint32_t seq = 0;
  std::uint32_t len = 0;  ///< payload bytes following the header
  std::uint32_t crc = 0;  ///< fault::checksum32 of the payload
  std::uint8_t kind = 0;
  std::uint8_t pad[3] = {};
  // In-band causal context (DESIGN.md section 11): the sender's frame span,
  // carried with the frame so the receiver parents its processing spans under
  // the *transmitted* identity rather than any side channel. Zero = untraced.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);

}  // namespace

/// One acquired registration-cache reference, released when the scope exits
/// however a transfer ends. A leaked reference never goes idle, so neither
/// eviction, governor reclaim nor flush() could ever drop its registration.
class Channel::CacheRef {
 public:
  CacheRef(core::RegistrationCache& cache, const MemHandle& handle)
      : cache_(cache), handle_(handle) {}
  ~CacheRef() { cache_.release(handle_); }
  CacheRef(const CacheRef&) = delete;
  CacheRef& operator=(const CacheRef&) = delete;

  [[nodiscard]] const MemHandle& handle() const { return handle_; }

 private:
  core::RegistrationCache& cache_;
  MemHandle handle_;
};

/// Per-process endpoint state.
struct Channel::Side {
  Side(via::Node& node, simkern::Pid pid) : host(node), vipl(node.agent(), pid) {}

  via::Node& host;  ///< the node this endpoint lives on (pids are per-kernel,
                    ///< so they cannot identify the side)
  via::Vipl vipl;
  via::ViId vi = via::kInvalidVi;
  via::SlotRing slots;  ///< eager bounce slots, every one posted
  via::SlotRing heap;   ///< whole-heap registration (Preregistered mode)
  std::unique_ptr<core::RegistrationCache> cache;
  std::map<std::uint64_t, via::RemoteWindow> imports;  ///< PIO import cache
  // Reliable-delivery state: sequence numbers this side assigns to frames it
  // originates, and the next sequence number it expects to receive.
  std::uint32_t send_seq = 0;
  std::uint32_t recv_expected = 0;
};

Channel::Channel(via::Cluster& cluster, via::NodeId sender,
                 via::NodeId receiver, Config config)
    : cluster_(cluster),
      sender_id_(sender),
      receiver_id_(receiver),
      config_(config) {}

Channel::~Channel() {
  if (!source_name_.empty()) {
    sender_node().kernel().metrics().unregister_source(source_name_, this);
  }
  // Disconnect first, then drop each side: its cache's registrations, the
  // heap and the slot ring. Tasks the channel created go with it.
  if (src_) (void)cluster_.fabric().disconnect(sender_id_, src_->vi);
  src_.reset();
  dst_.reset();
  const auto exit_own = [](via::Node& node, simkern::Pid configured,
                           simkern::Pid pid) {
    if (configured != simkern::kInvalidPid || pid == simkern::kInvalidPid)
      return;
    node.agent().release_tenant(pid);
    node.kernel().exit_task(pid);
  };
  exit_own(sender_node(), config_.sender_pid, src_pid_);
  exit_own(receiver_node(), config_.receiver_pid, dst_pid_);
}

KStatus Channel::init() {
  assert(!initialised_);
  via::Node& sn = cluster_.node(sender_id_);
  via::Node& rn = cluster_.node(receiver_id_);

  src_pid_ = config_.sender_pid != simkern::kInvalidPid
                 ? config_.sender_pid
                 : sn.kernel().create_task("msg-sender");
  dst_pid_ = config_.receiver_pid != simkern::kInvalidPid
                 ? config_.receiver_pid
                 : rn.kernel().create_task("msg-receiver");

  const auto prot = simkern::VmFlag::Read | simkern::VmFlag::Write;
  const auto sh = sn.kernel().sys_mmap_anon(src_pid_, config_.user_heap_bytes, prot);
  const auto dh = rn.kernel().sys_mmap_anon(dst_pid_, config_.user_heap_bytes, prot);
  if (!sh || !dh) return KStatus::NoMem;
  src_heap_ = *sh;
  dst_heap_ = *dh;

  src_ = std::make_unique<Side>(sn, src_pid_);
  dst_ = std::make_unique<Side>(rn, dst_pid_);

  for (Side* s : {src_.get(), dst_.get()}) {
    if (const KStatus st = s->vipl.open(); !ok(st)) return st;
    // Reliable-delivery mode supplies its own guarantees, so it runs over
    // unreliable VIs (the VIA "unreliable delivery" service class).
    const via::ViAttributes attrs = config_.reliability.enabled
                                        ? via::ViAttributes::unreliable()
                                        : via::ViAttributes::reliable();
    if (const KStatus st = s->vipl.create_vi(s->vi, attrs); !ok(st)) return st;
  }
  if (const KStatus st = cluster_.fabric().connect(sender_id_, src_->vi,
                                                   receiver_id_, dst_->vi);
      !ok(st)) {
    return st;
  }

  // Eager bounce buffers: mmap + register once, pre-post all receive slots.
  const std::uint64_t bytes =
      std::uint64_t{config_.eager_slot_size} * config_.eager_credits;
  for (Side* side : {src_.get(), dst_.get()}) {
    const auto addr = side->host.kernel().sys_mmap_anon(side->vipl.pid(),
                                                        bytes, prot);
    if (!addr) return KStatus::NoMem;
    if (const KStatus st =
            side->slots.open(side->vipl, side->vi, *addr, bytes,
                             config_.eager_slot_size, 0, config_.eager_credits);
        !ok(st)) {
      return st;
    }
    side->cache = std::make_unique<core::RegistrationCache>(
        side->vipl,
        core::RegistrationCache::Config{.policy = config_.cache_policy});
  }

  if (config_.preregister_heaps) {
    for (auto [side, heap] : {std::pair{src_.get(), src_heap_},
                              std::pair{dst_.get(), dst_heap_}}) {
      if (const KStatus st =
              side->heap.open(side->vipl, side->vi, heap,
                              config_.user_heap_bytes, 0, 0, 0);
          !ok(st)) {
        return st;
      }
    }
  }

  // Publish the channel's counters on the sender node's registry (one node
  // owns a channel's metrics; the sender side initiates every transfer).
  // pid-suffixed: the scenario engine builds one channel per ordered host
  // pair on shared tenant pids.
  simkern::Kernel& sk = sn.kernel();
  source_name_ = "msg.ch.p" + std::to_string(src_pid_) + ".d" +
                 std::to_string(dst_pid_);
  transfer_ns_ = &sk.metrics().histogram(source_name_ + ".transfer_ns");
  sk.metrics().register_source(source_name_, this, [this](obs::MetricSink& s) {
    s.counter("eager_msgs", stats_.eager_msgs);
    s.counter("rendezvous_msgs", stats_.rendezvous_msgs);
    s.counter("prereg_msgs", stats_.prereg_msgs);
    s.counter("pio_msgs", stats_.pio_msgs);
    s.counter("bytes_moved", stats_.bytes_moved);
    s.counter("control_msgs", stats_.control_msgs);
    s.counter("window_imports", stats_.window_imports);
    s.counter("frames_sent", stats_.frames_sent);
    s.counter("retries", stats_.retries);
    s.counter("send_timeouts", stats_.send_timeouts);
    s.counter("acks_received", stats_.acks_received);
    s.counter("dup_frames_dropped", stats_.dup_frames_dropped);
    s.counter("corruptions_detected", stats_.corruptions_detected);
    s.counter("conn_repairs", stats_.conn_repairs);
  });

  initialised_ = true;
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// Untimed helpers
// ---------------------------------------------------------------------------

KStatus Channel::stage(std::uint64_t src_off, std::span<const std::byte> payload) {
  return sender_node().kernel().write_user(src_pid_, src_heap_ + src_off,
                                           payload);
}

KStatus Channel::fetch(std::uint64_t dst_off, std::span<std::byte> out) {
  return receiver_node().kernel().read_user(dst_pid_, dst_heap_ + dst_off, out);
}

// ---------------------------------------------------------------------------
// Eager path
// ---------------------------------------------------------------------------

KStatus Channel::harvest(Side& from, Side& to, std::uint32_t& slot) {
  const auto sc = from.vipl.send_done(from.vi);
  if (!sc || !sc->done_ok()) return KStatus::Proto;
  const auto rc = to.vipl.recv_done(to.vi);
  if (!rc || !rc->done_ok()) return KStatus::Proto;
  slot = static_cast<std::uint32_t>(rc->cookie);
  return KStatus::Ok;
}

KStatus Channel::send_slot0(Side& from, Side& to, std::uint32_t len,
                            std::uint32_t& slot) {
  if (const KStatus st = from.vipl.post_send(from.vi, from.slots.handle(),
                                             from.slots.addr(0), len);
      !ok(st)) {
    return st;
  }
  return harvest(from, to, slot);
}

KStatus Channel::eager_push(Side& from, Side& to,
                            std::span<const std::byte> msg) {
  assert(msg.size() <= config_.eager_slot_size);
  // Copy into the sender's bounce slot 0 (single in-flight message in the
  // synchronous model) via one user-space copy... except the source here is
  // library-internal bytes, so write_user models the copy into the
  // registered buffer.
  if (const KStatus st = from.host.kernel().write_user(from.vipl.pid(),
                                                       from.slots.addr(0), msg);
      !ok(st)) {
    return st;
  }
  std::uint32_t slot = 0;
  if (const KStatus st = send_slot0(from, to,
                                    static_cast<std::uint32_t>(msg.size()),
                                    slot);
      !ok(st)) {
    return st;
  }
  // Re-arm the consumed slot.
  return to.slots.repost(slot);
}

KStatus Channel::eager(std::uint64_t src_off, std::uint64_t dst_off,
                       std::uint32_t len) {
  if (len > config_.eager_slot_size) return KStatus::Inval;
  simkern::Kernel& sk = sender_node().kernel();
  simkern::Kernel& rk = receiver_node().kernel();

  // Sender: one copy user buffer -> registered bounce slot.
  if (const KStatus st =
          sk.copy_user(src_pid_, src_->slots.addr(0), src_heap_ + src_off, len);
      !ok(st)) {
    return st;
  }
  std::uint32_t slot = 0;
  if (const KStatus st = send_slot0(*src_, *dst_, len, slot); !ok(st)) {
    return st;
  }

  // Receiver: one copy bounce slot -> user buffer, then re-arm the slot.
  if (const KStatus st = rk.copy_user(dst_pid_, dst_heap_ + dst_off,
                                      dst_->slots.addr(slot), len);
      !ok(st)) {
    return st;
  }
  if (const KStatus st = dst_->slots.repost(slot); !ok(st)) return st;

  ++stats_.eager_msgs;
  stats_.bytes_moved += len;
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// Reliable-delivery machinery
// ---------------------------------------------------------------------------

void Channel::charge_timeout(std::uint32_t attempt) {
  cluster_.clock().advance(kRetryTimeout << std::min(attempt, kBackoffCap));
  ++stats_.send_timeouts;
  sender_node().kernel().trace().record(
      cluster_.clock().now(), TraceEvent::SendTimeout,
      static_cast<std::uint32_t>(src_pid_), /*addr=*/0, attempt);
}

void Channel::repair_connection() {
  ++stats_.conn_repairs;
  // Best effort: the endpoints always exist here, so Inval cannot happen.
  (void)cluster_.fabric().repair(sender_id_, src_->vi, receiver_id_, dst_->vi);
}

void Channel::count_retry(Side& from, std::uint64_t what,
                          std::uint32_t attempt) {
  ++stats_.retries;
  from.host.kernel().trace().record(
      cluster_.clock().now(), TraceEvent::SendRetry,
      static_cast<std::uint32_t>(from.vipl.pid()), what, attempt);
}

std::optional<via::DescStatus> Channel::send_status(Side& from, KStatus posted,
                                                    std::uint32_t attempt) {
  if (ok(posted)) {
    const auto sc = from.vipl.send_done(from.vi);
    if (!sc) {
      // Doorbell drop: the NIC never saw the descriptor, so no completion
      // will ever arrive - only the timeout catches this.
      charge_timeout(attempt);
      return std::nullopt;
    }
    if (sc->status != via::DescStatus::ErrDisconnected) return sc->status;
  }
  // The post failed on a VI an earlier reset broke, or this send was reset:
  // repair the connection and retry.
  repair_connection();
  charge_timeout(attempt);
  return std::nullopt;
}

KStatus Channel::timed_out(Side& from, std::uint64_t what,
                           std::string_view reason) {
  simkern::Kernel& sk = sender_node().kernel();
  sk.trace().record(cluster_.clock().now(), TraceEvent::SendTimeout,
                    static_cast<std::uint32_t>(from.vipl.pid()), what,
                    config_.reliability.max_retries);
  // Retry budget exhausted: a terminal fault. Capture the postmortem while
  // the spans/trace/metrics still show the failing timeline.
  sk.flight_dump(reason);
  return KStatus::TimedOut;
}

bool Channel::send_ack(Side& acker, Side& waiter, std::uint32_t seq) {
  const obs::ScopedSpan ack_span(acker.host.kernel().spans(), "msg.ack");
  FrameHeader hdr;
  hdr.magic = kFrameMagic;
  hdr.seq = seq;
  hdr.len = 0;
  hdr.crc = fault::checksum32({});
  hdr.kind = kFrameAck;
  const obs::TraceContext ack_ctx = acker.host.kernel().spans().active_context();
  hdr.trace_id = ack_ctx.trace_id;
  hdr.span_id = ack_ctx.span_id;
  std::array<std::byte, sizeof(FrameHeader)> frame;
  static_cast<void>(wire::store_pod(frame, hdr));  // frame is sized exactly

  ++stats_.frames_sent;
  if (!ok(acker.host.kernel().write_user(acker.vipl.pid(), acker.slots.addr(0),
                                         frame))) {
    return false;
  }
  if (!ok(acker.vipl.post_send(acker.vi, acker.slots.handle(), acker.slots.addr(0),
                               sizeof(FrameHeader)))) {
    return false;
  }
  const auto sc = acker.vipl.send_done(acker.vi);
  if (!sc) return false;  // doorbell drop: the ack never left
  if (sc->status == via::DescStatus::ErrDisconnected) {
    repair_connection();
    return false;
  }
  if (!sc->done_ok()) return false;
  const auto rc = waiter.vipl.recv_done(waiter.vi);
  if (!rc) return false;  // ack lost on the wire
  const auto slot = static_cast<std::uint32_t>(rc->cookie);
  std::array<std::byte, sizeof(FrameHeader)> rx{};
  const bool readable =
      rc->done_ok() && rc->transferred == sizeof(FrameHeader) &&
      ok(waiter.host.kernel().read_user(waiter.vipl.pid(),
                                        waiter.slots.addr(slot), rx));
  if (!ok(waiter.slots.repost(slot))) return false;
  if (!readable) return false;
  FrameHeader got{};
  if (!wire::load_pod(rx, got)) return false;
  if (got.magic != kFrameMagic || got.kind != kFrameAck || got.seq != seq) {
    ++stats_.corruptions_detected;  // bit-flipped ack caught by the header
    return false;
  }
  return true;
}

KStatus Channel::reliable_push(Side& from, Side& to, std::uint8_t kind,
                               std::span<const std::byte> payload,
                               std::vector<std::byte>& out) {
  const Reliability& rel = config_.reliability;
  if (payload.size() + sizeof(FrameHeader) > config_.eager_slot_size)
    return KStatus::Inval;

  // The frame span covers every delivery attempt; retransmit spans open
  // inside it, so a retransmit is a child of the original send in the trace.
  obs::SpanRecorder& send_spans = from.host.kernel().spans();
  const obs::ScopedSpan frame_span(send_spans, "msg.frame");

  FrameHeader hdr;
  hdr.magic = kFrameMagic;
  hdr.seq = from.send_seq++;
  hdr.len = static_cast<std::uint32_t>(payload.size());
  hdr.crc = fault::checksum32(payload);
  hdr.kind = kind;
  // Stamp the causal context in-band: every retransmitted copy of this frame
  // carries the same originating span identity.
  const obs::TraceContext frame_ctx = frame_span.carried_context();
  hdr.trace_id = frame_ctx.trace_id;
  hdr.span_id = frame_ctx.span_id;
  std::vector<std::byte> frame(sizeof(FrameHeader) + payload.size());
  static_cast<void>(wire::store_pod(frame, hdr));  // frame covers the header
  if (!payload.empty())
    std::memcpy(frame.data() + sizeof hdr, payload.data(), payload.size());

  bool delivered = false;

  for (std::uint32_t attempt = 0; attempt <= rel.max_retries; ++attempt) {
    const obs::ScopedSpan attempt_span(
        send_spans, attempt == 0 ? "msg.send" : "msg.retransmit");
    if (attempt > 0) count_retry(from, hdr.seq, attempt);
    ++stats_.frames_sent;
    if (const KStatus st =
            from.host.kernel().write_user(from.vipl.pid(), from.slots.addr(0), frame);
        !ok(st)) {
      return st;
    }
    const auto sent = send_status(
        from,
        from.vipl.post_send(from.vi, from.slots.handle(), from.slots.addr(0),
                            static_cast<std::uint32_t>(frame.size())),
        attempt);
    if (!sent) continue;
    if (*sent == via::DescStatus::ErrNoRecvDesc) {
      charge_timeout(attempt);
      continue;
    }
    if (*sent != via::DescStatus::Done) return KStatus::Proto;

    // A Done send only proves the frame left the local NIC; poll the
    // receive queue to learn whether it survived the wire.
    const auto rc = to.vipl.recv_done(to.vi);
    if (!rc) {
      charge_timeout(attempt);  // silent wire loss
      continue;
    }
    const auto slot = static_cast<std::uint32_t>(rc->cookie);
    std::vector<std::byte> rx(rc->transferred);
    const bool readable =
        rc->done_ok() &&
        ok(to.host.kernel().read_user(to.vipl.pid(), to.slots.addr(slot), rx));
    if (const KStatus st = to.slots.repost(slot); !ok(st)) return st;
    if (!readable) {
      charge_timeout(attempt);
      continue;
    }

    FrameHeader got{};
    bool valid = wire::load_pod(rx, got);
    if (valid) {
      valid = got.magic == kFrameMagic && got.kind == kind &&
              sizeof(FrameHeader) + got.len == rx.size() &&
              got.crc ==
                  fault::checksum32(std::span(rx).subspan(sizeof(FrameHeader)));
    }
    if (!valid) {
      // An injected DMA/wire bit-flip caught by magic/length/checksum: the
      // receiver discards the frame and withholds the ack.
      ++stats_.corruptions_detected;
      charge_timeout(attempt);
      continue;
    }

    // Receiver-side processing adopts the *in-band* context from the frame
    // header (not the sender's recorder): its parent is the transmitted
    // span_id, and the ack sent below nests under it.
    obs::SpanRecorder& recv_spans = to.host.kernel().spans();
    const obs::ScopedTraceContext rx_ctx(
        recv_spans, obs::TraceContext{got.trace_id, got.span_id, 0});
    const obs::ScopedSpan rx_span(recv_spans, "msg.frame.recv");

    if (got.seq == to.recv_expected) {
      ++to.recv_expected;
      out.assign(rx.begin() + sizeof(FrameHeader), rx.end());
      delivered = true;
    } else if (delivered && got.seq == hdr.seq) {
      // A replay of a frame whose ack was lost: deduplicate (do not deliver
      // twice) but re-ack so the sender can stop retransmitting.
      ++stats_.dup_frames_dropped;
    } else {
      // The sequence number is not covered by the payload checksum; a
      // bit-flip there shows up as an impossible seq. Treat as corruption.
      ++stats_.corruptions_detected;
      charge_timeout(attempt);
      continue;
    }
    if (!send_ack(to, from, got.seq)) {
      charge_timeout(attempt);
      continue;  // lost/corrupt ack: retransmit, the dedup path re-acks
    }
    ++stats_.acks_received;
    return KStatus::Ok;
  }
  return timed_out(from, hdr.seq, "msg.send_timeout");
}

KStatus Channel::push_ctrl(Side& from, Side& to,
                           std::span<const std::byte> msg) {
  std::vector<std::byte> out;
  const KStatus st = config_.reliability.enabled
                         ? reliable_push(from, to, kFrameCtrl, msg, out)
                         : eager_push(from, to, msg);
  if (ok(st)) ++stats_.control_msgs;
  return st;
}

KStatus Channel::acquire_with_retry(Side& side, VAddr addr, std::uint32_t len,
                                    MemHandle& out) {
  KStatus st = side.cache->acquire(addr, len, out);
  if (!config_.reliability.enabled) return st;
  // Injected registration failures (kiobuf map rejection, allocator
  // pressure) are transient: back off and retry within the same budget.
  for (std::uint32_t attempt = 0;
       st == KStatus::Again && attempt < config_.reliability.max_retries;
       ++attempt) {
    charge_timeout(attempt);
    st = side.cache->acquire(addr, len, out);
  }
  return st;
}

KStatus Channel::reliable_rdma(const MemHandle& src_mh, VAddr src_addr,
                               const MemHandle& dst_mh, VAddr dst_addr,
                               std::uint32_t len) {
  simkern::Kernel& sk = sender_node().kernel();
  simkern::Kernel& rk = receiver_node().kernel();

  // End-to-end integrity: checksum the source payload once; the FIN exchange
  // is modelled by verifying the receiver's copy against it after every
  // write attempt.
  std::vector<std::byte> buf(len);
  if (const KStatus st = sk.read_user(src_pid_, src_addr, buf); !ok(st))
    return st;
  const std::uint32_t want = fault::checksum32(buf);

  // Same trace shape as reliable_push: one enclosing span per RDMA op, one
  // child per attempt, so retransmits parent under the original write.
  const obs::ScopedSpan rdma_span(sk.spans(), "msg.rdma");

  for (std::uint32_t attempt = 0; attempt <= config_.reliability.max_retries;
       ++attempt) {
    const obs::ScopedSpan attempt_span(
        sk.spans(), attempt == 0 ? "msg.send" : "msg.retransmit");
    if (attempt > 0) count_retry(*src_, dst_addr, attempt);
    const auto sent = send_status(
        *src_,
        src_->vipl.rdma_write(src_->vi, src_mh, src_addr, len, dst_mh,
                              dst_addr, /*cookie=*/0,
                              /*immediate=*/std::uint32_t{len}),
        attempt);
    if (!sent) continue;
    if (*sent != via::DescStatus::Done) return KStatus::Proto;
    // The immediate-data completion consumed a receiver slot; its absence
    // means the write was dropped in flight.
    if (const auto rc = dst_->vipl.recv_done(dst_->vi); rc) {
      if (const KStatus st =
              dst_->slots.repost(static_cast<std::uint32_t>(rc->cookie));
          !ok(st)) {
        return st;
      }
      if (!rc->done_ok()) {
        charge_timeout(attempt);
        continue;
      }
    } else {
      charge_timeout(attempt);
      continue;
    }
    // Receiver-side verification (the read charges copy/fault time).
    if (const KStatus st = rk.read_user(dst_pid_, dst_addr, buf); !ok(st))
      return st;
    if (fault::checksum32(buf) != want) {
      ++stats_.corruptions_detected;
      charge_timeout(attempt);
      continue;
    }
    return KStatus::Ok;
  }
  return timed_out(*src_, dst_addr, "msg.rdma_timeout");
}

KStatus Channel::reliable_eager(std::uint64_t src_off, std::uint64_t dst_off,
                                std::uint32_t len) {
  if (len + sizeof(FrameHeader) > config_.eager_slot_size)
    return KStatus::Inval;
  std::vector<std::byte> payload(len);
  if (const KStatus st =
          sender_node().kernel().read_user(src_pid_, src_heap_ + src_off,
                                           payload);
      !ok(st)) {
    return st;
  }
  std::vector<std::byte> out;
  if (const KStatus st = reliable_push(*src_, *dst_, kFrameData, payload, out);
      !ok(st)) {
    return st;
  }
  if (const KStatus st = receiver_node().kernel().write_user(
          dst_pid_, dst_heap_ + dst_off, out);
      !ok(st)) {
    return st;
  }
  ++stats_.eager_msgs;
  stats_.bytes_moved += len;
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// Rendezvous path (dynamic registration, true zero-copy)
// ---------------------------------------------------------------------------

KStatus Channel::handshake(std::uint64_t dst_off, std::uint32_t len,
                           std::optional<CacheRef>& dst) {
  // Sender -> receiver: REQ control message.
  const RndzReq req{len, dst_off};
  if (const KStatus st = push_ctrl(*src_, *dst_, wire::pod_bytes(req));
      !ok(st)) {
    return st;
  }
  // The receiver registers (or cache-hits) the destination buffer and ACKs
  // with its memory handle.
  RndzAck ack;
  ack.dst_addr = dst_heap_ + dst_off;
  if (const KStatus st = acquire_with_retry(*dst_, ack.dst_addr, len,
                                            ack.dst_handle);
      !ok(st)) {
    return st;
  }
  dst.emplace(*dst_->cache, ack.dst_handle);
  return push_ctrl(*dst_, *src_, wire::pod_bytes(ack));
}

KStatus Channel::rdma_put(const MemHandle& src_mh, VAddr src_addr,
                          const MemHandle& dst_mh, VAddr dst_addr,
                          std::uint32_t len) {
  if (config_.reliability.enabled)
    return reliable_rdma(src_mh, src_addr, dst_mh, dst_addr, len);
  if (const KStatus st = src_->vipl.rdma_write(
          src_->vi, src_mh, src_addr, len, dst_mh, dst_addr, /*cookie=*/0,
          /*immediate=*/std::uint32_t{len});
      !ok(st)) {
    return st;
  }
  // The immediate-data completion consumed one receiver slot: harvest +
  // re-arm.
  std::uint32_t slot = 0;
  if (const KStatus st = harvest(*src_, *dst_, slot); !ok(st)) return st;
  return dst_->slots.repost(slot);
}

KStatus Channel::rendezvous(std::uint64_t src_off, std::uint64_t dst_off,
                            std::uint32_t len) {
  // 1-2. REQ; the receiver registers its destination buffer and ACKs.
  std::optional<CacheRef> dst_ref;
  if (const KStatus st = handshake(dst_off, len, dst_ref); !ok(st)) return st;

  // 3. Sender registers (or cache-hits) the source buffer and RDMA-writes
  //    straight into the receiver's user buffer.
  MemHandle src_mh;
  if (const KStatus st = acquire_with_retry(*src_, src_heap_ + src_off, len,
                                            src_mh);
      !ok(st)) {
    return st;
  }
  const CacheRef src_ref(*src_->cache, src_mh);
  if (const KStatus st = rdma_put(src_mh, src_heap_ + src_off,
                                  dst_ref->handle(), dst_heap_ + dst_off, len);
      !ok(st)) {
    return st;
  }

  ++stats_.rendezvous_msgs;
  stats_.bytes_moved += len;
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// Preregistered path
// ---------------------------------------------------------------------------

KStatus Channel::preregistered(std::uint64_t src_off, std::uint64_t dst_off,
                               std::uint32_t len) {
  const MemHandle& src_mh = src_->heap.handle();
  const MemHandle& dst_mh = dst_->heap.handle();
  if (!src_mh.valid() || !dst_mh.valid()) return KStatus::Proto;
  if (const KStatus st = rdma_put(src_mh, src_heap_ + src_off, dst_mh,
                                  dst_heap_ + dst_off, len);
      !ok(st)) {
    return st;
  }
  ++stats_.prereg_msgs;
  stats_.bytes_moved += len;
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// Improved rendezvous (PIO) path - figure 5 of the Memory Management paper
// ---------------------------------------------------------------------------

KStatus Channel::pio_rendezvous(std::uint64_t src_off, std::uint64_t dst_off,
                                std::uint32_t len) {
  // 1-2. REQ ("the sender informs the receiver as usual"); the receiver
  //    checks whether the destination "is already exported to the sender"
  //    (registration cache) and acknowledges with its handle.
  std::optional<CacheRef> dst_ref;
  if (const KStatus st = handshake(dst_off, len, dst_ref); !ok(st)) return st;
  const MemHandle& dst_mh = dst_ref->handle();
  const VAddr dst_addr = dst_heap_ + dst_off;

  // 3. Sender imports the exported memory (cached across transfers) and
  //    copies the payload with programmed I/O directly into the receiving
  //    process's private memory - no sender-side registration.
  auto it = src_->imports.find(dst_mh.id);
  if (it == src_->imports.end()) {
    auto window = via::RemoteWindow::import(cluster_.fabric(), sender_id_,
                                            receiver_id_, dst_mh);
    if (!window) return KStatus::Fault;
    it = src_->imports.emplace(dst_mh.id, *window).first;
    ++stats_.window_imports;
  }
  simkern::Kernel& sk = sender_node().kernel();
  std::vector<std::byte> chunk(64 * 1024);
  std::uint32_t done = 0;
  while (done < len) {
    const auto n = std::min<std::uint32_t>(
        len - done, static_cast<std::uint32_t>(chunk.size()));
    // CPU loads from the source buffer... (faults charged via the kernel)
    if (const KStatus st = sk.read_user(src_pid_, src_heap_ + src_off + done,
                                        std::span(chunk).first(n));
        !ok(st)) {
      return st;
    }
    // ...and stores through the imported window.
    const std::uint64_t window_off = dst_addr - dst_mh.vaddr;
    if (const KStatus st =
            it->second.store(window_off + done, std::span(chunk).first(n));
        !ok(st)) {
      return st;
    }
    done += n;
  }

  // 4. Completion notice (the protocol's finishing message). In reliable
  //    mode, also verify the stored payload end-to-end: PIO stores bypass
  //    the descriptor path, but they are still translated through the
  //    exporter's TPT, so an injected TPT corruption can land them in the
  //    wrong frame.
  if (config_.reliability.enabled) {
    std::vector<std::byte> chk(len);
    if (const KStatus st =
            sk.read_user(src_pid_, src_heap_ + src_off, chk);
        !ok(st)) {
      return st;
    }
    const std::uint32_t want = fault::checksum32(chk);
    if (const KStatus st = receiver_node().kernel().read_user(
            dst_pid_, dst_addr, chk);
        !ok(st)) {
      return st;
    }
    if (fault::checksum32(chk) != want) {
      ++stats_.corruptions_detected;
      return KStatus::Io;
    }
  }
  const RndzReq fin{len, dst_off};
  if (const KStatus st = push_ctrl(*src_, *dst_, wire::pod_bytes(fin));
      !ok(st)) {
    return st;
  }

  ++stats_.pio_msgs;
  stats_.bytes_moved += len;
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------

KStatus Channel::transfer(Protocol proto, std::uint64_t src_off,
                          std::uint64_t dst_off, std::uint32_t len) {
  assert(initialised_);
  if (len == 0) return KStatus::Inval;
  if (src_off + len > config_.user_heap_bytes ||
      dst_off + len > config_.user_heap_bytes) {
    return KStatus::Inval;
  }
  simkern::Kernel& sk = sender_node().kernel();
  const obs::ScopedSpan span(sk.spans(), "msg.transfer");
  // The whole transfer - both endpoints - runs under this root span's trace.
  // The receiver's kernel is a different recorder (its own ID stream), so its
  // spans adopt the context via the ambient stack; the simulation is
  // synchronous, so the push brackets all receiver-side work exactly.
  const obs::ScopedTraceContext recv_ctx(receiver_node().kernel().spans(),
                                         span.context());
  const VirtualStopwatch sw(sk.clock());
  const auto charge = [&](KStatus st) {
    transfer_ns_->add(sw.elapsed());
    return st;
  };
  switch (proto) {
    case Protocol::Eager:
      return charge(config_.reliability.enabled
                        ? reliable_eager(src_off, dst_off, len)
                        : eager(src_off, dst_off, len));
    case Protocol::Rendezvous: return charge(rendezvous(src_off, dst_off, len));
    case Protocol::Preregistered:
      return charge(preregistered(src_off, dst_off, len));
    case Protocol::PioRendezvous:
      return charge(pio_rendezvous(src_off, dst_off, len));
  }
  return KStatus::Inval;
}

KStatus Channel::transfer_auto(std::uint64_t src_off, std::uint64_t dst_off,
                               std::uint32_t len) {
  return transfer(len < kEagerThreshold ? Protocol::Eager
                                        : Protocol::Rendezvous,
                  src_off, dst_off, len);
}

const core::RegCacheStats& Channel::sender_cache_stats() const {
  return src_->cache->stats();
}

const core::RegCacheStats& Channel::receiver_cache_stats() const {
  return dst_->cache->stats();
}

}  // namespace vialock::msg
