#include "mp/comm.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/span.h"
#include "via/slot_ring.h"

namespace vialock::mp {

using simkern::Pid;
using simkern::VAddr;

namespace {

/// Shared-memory bounce buffer a local link pipelines large payloads through.
inline constexpr std::uint64_t kLocalBounceBytes = 64 * 1024;

template <typename T>
std::span<const std::byte> bytes_of(const T& v) {
  return std::as_bytes(std::span{&v, 1});
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

struct Comm::Pending {
  enum class Kind { Send, Recv } kind = Kind::Send;
  Rank rank = 0;  ///< owning rank
  bool complete = false;
  bool failed = false;
  MpStatus status;

  // Send bookkeeping (rendezvous only):
  via::MemHandle src_handle;
  bool src_registered = false;

  // Receive bookkeeping:
  std::int32_t want_source = kAnySource;
  std::int32_t want_tag = kAnyTag;
  std::uint64_t offset = 0;
  std::uint32_t max_len = 0;

  /// Complete the request as failed; returns `st` for the caller to pass on.
  KStatus fail(KStatus st) {
    failed = true;
    complete = true;
    return st;
  }
};

struct Comm::Side {
  Side(via::Node& node, Pid pid_in) : pid(pid_in), vipl(node.agent(), pid_in) {}

  Pid pid;
  via::Vipl vipl;
  std::unique_ptr<core::RegistrationCache> cache;
  VAddr heap = 0;

  struct Link {
    // Remote (VIA) path:
    via::ViId vi = via::kInvalidVi;
    via::SlotRing slots;  ///< credits recv slots + 1 send staging slot
    // Local (shared-memory) path:
    bool local = false;
    simkern::ShmId shm = simkern::kInvalidShm;
    VAddr shm_base = 0;           ///< this rank's mapping of the segment
    std::uint32_t send_dir = 0;   ///< segment half this rank sends on
    std::uint32_t next_slot = 0;  ///< round-robin send slot cursor
  };
  std::vector<Link> links;  ///< indexed by peer rank (self unused)

  // Unexpected-message arena: plain process memory, slot-granular.
  VAddr sys_scratch = 0;  ///< staging for system (routed) messages
  VAddr arena = 0;
  std::vector<bool> arena_used;
  std::deque<UnexpectedMsg> unexpected;  ///< arrival order
  std::deque<ReqId> posted;              ///< post order
  std::uint64_t arena_overflows = 0;

  [[nodiscard]] std::uint32_t alloc_arena_slot() {
    for (std::uint32_t i = 0; i < arena_used.size(); ++i) {
      if (!arena_used[i]) {
        arena_used[i] = true;
        return i;
      }
    }
    return static_cast<std::uint32_t>(-1);
  }
  void free_arena_slot(std::uint32_t i) { arena_used[i] = false; }
};

// ---------------------------------------------------------------------------
// Construction / init
// ---------------------------------------------------------------------------

Comm::Comm(via::Cluster& cluster, std::vector<via::NodeId> nodes, Config config)
    : cluster_(cluster), nodes_(std::move(nodes)), config_(config) {}

Comm::~Comm() {
  // Owner-checked: a later Comm that took the name over keeps it.
  if (!nodes_.empty()) {
    cluster_.node(nodes_[0]).kernel().metrics().unregister_source("mp", this);
  }
  // Each rank disconnects its links, drops its slot rings and its cache's
  // registrations, and its task - created here - goes too.
  std::vector<std::pair<via::NodeId, simkern::ShmId>> segments;
  for (Rank r = 0; r < sides_.size(); ++r) {
    via::Node& node = cluster_.node(nodes_[r]);
    const Pid pid = sides_[r]->pid;
    const std::vector<Side::Link>& links = sides_[r]->links;
    for (Rank peer = 0; peer < links.size(); ++peer) {
      (void)cluster_.fabric().disconnect(nodes_[r], links[peer].vi);
      if (links[peer].local && r < peer)
        segments.emplace_back(nodes_[r], links[peer].shm);
    }
    sides_[r].reset();
    node.agent().release_tenant(pid);
    node.kernel().exit_task(pid);
  }
  // A local link's segment outlives its attachments; with both ranks gone,
  // removing it returns its frames.
  for (const auto& [node, seg] : segments)
    (void)cluster_.node(node).kernel().shm_destroy(seg);
}

simkern::Pid Comm::rank_pid(Rank r) const { return sides_[r]->pid; }

KStatus Comm::init() {
  assert(!initialised_);
  if (nodes_.size() < 2) return KStatus::Inval;
  if (config_.lazy_links && !config_.no_direct_link.empty())
    return KStatus::Inval;  // lazy pairs are always direct; nothing to route
  const auto prot = simkern::VmFlag::Read | simkern::VmFlag::Write;
  const std::uint32_t slot = config_.eager_slot_size;

  for (Rank r = 0; r < size(); ++r) {
    via::Node& node = cluster_.node(nodes_[r]);
    const Pid pid = node.kernel().create_task("mp-rank" + std::to_string(r));
    auto side = std::make_unique<Side>(node, pid);
    if (const KStatus st = side->vipl.open(); !ok(st)) return st;
    const auto heap = node.kernel().sys_mmap_anon(pid, config_.heap_bytes, prot);
    if (!heap) return KStatus::NoMem;
    side->heap = *heap;
    const auto arena = node.kernel().sys_mmap_anon(
        pid, static_cast<std::uint64_t>(slot) * config_.unexpected_slots, prot);
    if (!arena) return KStatus::NoMem;
    side->arena = *arena;
    side->arena_used.assign(config_.unexpected_slots, false);
    const auto scratch = node.kernel().sys_mmap_anon(pid, slot, prot);
    if (!scratch) return KStatus::NoMem;
    side->sys_scratch = *scratch;
    side->cache = std::make_unique<core::RegistrationCache>(side->vipl);
    side->links.resize(nodes_.size());
    sides_.push_back(std::move(side));
  }

  // One link per unordered rank pair: a shared-memory segment when both
  // ranks live on the same node (the multidevice "Connectiontable" routing),
  // otherwise a VI pair over the fabric. Lazy mode defers each pair to its
  // first send - a 256-rank communicator would otherwise pin bounce slots
  // for 32k pairs that mostly never talk.
  if (!config_.lazy_links) {
    const auto blocked = [&](Rank a, Rank b) {
      for (const auto& [x, y] : config_.no_direct_link) {
        if ((x == a && y == b) || (x == b && y == a)) return true;
      }
      return false;
    };
    for (Rank i = 0; i < size(); ++i) {
      for (Rank j = i + 1; j < size(); ++j) {
        if (blocked(i, j)) continue;  // no link: traffic will be routed
        if (const KStatus st = ensure_link(i, j); !ok(st)) return st;
      }
    }
  }
  // Routing table for link-less pairs: BFS over the link graph per source
  // (the job the multidevice paper's mdconfig tool does with Dijkstra).
  next_hop_.assign(size(), std::vector<Rank>(size(), kNoRoute));
  for (Rank src = 0; src < size(); ++src) {
    std::deque<Rank> frontier{src};
    std::vector<Rank> parent(size(), kNoRoute);
    parent[src] = src;
    while (!frontier.empty()) {
      const Rank at = frontier.front();
      frontier.pop_front();
      for (Rank nb = 0; nb < size(); ++nb) {
        if (nb == at || parent[nb] != kNoRoute) continue;
        if (!has_direct_link(at, nb)) continue;
        parent[nb] = at;
        frontier.push_back(nb);
      }
    }
    for (Rank dst = 0; dst < size(); ++dst) {
      if (dst == src || parent[dst] == kNoRoute) continue;
      Rank step = dst;
      while (parent[step] != src) step = parent[step];
      next_hop_[src][dst] = step;
    }
  }
  // Publish the communicator through rank 0's host registry: the CommStats
  // counters plus the summed per-rank unexpected-arena overflows. Subsystem
  // "mp" (first dot-segment) joins the exported set.
  cluster_.node(nodes_[0]).kernel().metrics().register_source(
      "mp", this, [this](obs::MetricSink& sink) {
        sink.counter("comm.eager_sends", stats_.eager_sends);
        sink.counter("comm.rendezvous_sends", stats_.rendezvous_sends);
        sink.counter("comm.unexpected_msgs", stats_.unexpected_msgs);
        sink.counter("comm.expected_msgs", stats_.expected_msgs);
        sink.counter("comm.rdma_pulls", stats_.rdma_pulls);
        sink.counter("comm.local_msgs", stats_.local_msgs);
        sink.counter("comm.local_pulls", stats_.local_pulls);
        sink.counter("comm.indirect_sends", stats_.indirect_sends);
        sink.counter("comm.indirect_forwards", stats_.indirect_forwards);
        sink.counter("comm.bytes", stats_.bytes);
        std::uint64_t overflows = 0;
        for (const auto& side : sides_) overflows += side->arena_overflows;
        sink.counter("comm.arena_overflows", overflows);
      });
  initialised_ = true;
  return KStatus::Ok;
}

KStatus Comm::ensure_link(Rank i, Rank j) {
  if (i > j) std::swap(i, j);  // local_queues_ and shm halves key on (lo, hi)
  if (has_direct_link(i, j)) return KStatus::Ok;
  const auto prot = simkern::VmFlag::Read | simkern::VmFlag::Write;
  const std::uint32_t slot = config_.eager_slot_size;
  const std::uint64_t link_bytes =
      static_cast<std::uint64_t>(slot) * (config_.eager_credits + 1);

  if (config_.shm_for_local && nodes_[i] == nodes_[j]) {
    simkern::Kernel& kern = cluster_.node(nodes_[i]).kernel();
    const std::uint64_t seg_bytes =
        2ULL * config_.eager_credits * slot + kLocalBounceBytes;
    const simkern::ShmId seg = kern.shm_create(seg_bytes);
    if (seg == simkern::kInvalidShm) return KStatus::NoMem;
    for (const Rank r : {i, j}) {
      Side& s = *sides_[r];
      const Rank peer = r == i ? j : i;
      const auto base = kern.shm_attach(s.pid, seg);
      if (!base) return KStatus::NoMem;
      Side::Link& link = s.links[peer];
      link.local = true;
      link.shm = seg;
      link.shm_base = *base;
      link.send_dir = r < peer ? 0 : 1;
    }
    local_queues_.emplace(
        std::make_pair(i, j),
        std::make_unique<std::array<std::deque<std::uint32_t>, 2>>());
    return KStatus::Ok;
  }
  // Each end: its VI, and a ring over the link memory with the receive
  // credits posted behind one doorbell.
  for (const Rank r : {i, j}) {
    Side& s = *sides_[r];
    Side::Link& link = s.links[r == i ? j : i];
    const auto slots =
        cluster_.node(nodes_[r]).kernel().sys_mmap_anon(s.pid, link_bytes, prot);
    if (!slots) return KStatus::NoMem;
    if (const KStatus st = s.vipl.create_vi(link.vi); !ok(st)) return st;
    if (const KStatus st = link.slots.open(s.vipl, link.vi, *slots, link_bytes,
                                           slot, 0, config_.eager_credits);
        !ok(st)) {
      return st;
    }
  }
  return cluster_.fabric().connect(nodes_[i], sides_[i]->links[j].vi,
                                   nodes_[j], sides_[j]->links[i].vi);
}

bool Comm::has_direct_link(Rank a, Rank b) const {
  const auto& link = sides_[a]->links[b];
  return link.local || link.vi != via::kInvalidVi;
}

Rank Comm::route_next(Rank from, Rank to) const {
  if (from == to) return to;
  if (has_direct_link(from, to)) return to;
  return next_hop_[from][to];
}

KStatus Comm::stage(Rank rank, std::uint64_t offset,
                    std::span<const std::byte> data) {
  Side& s = *sides_[rank];
  return cluster_.node(nodes_[rank]).kernel().write_user(s.pid,
                                                         s.heap + offset, data);
}

KStatus Comm::fetch(Rank rank, std::uint64_t offset, std::span<std::byte> out) {
  Side& s = *sides_[rank];
  return cluster_.node(nodes_[rank]).kernel().read_user(s.pid, s.heap + offset,
                                                        out);
}

// ---------------------------------------------------------------------------
// Wire: one eager-slot message from `from` to `to`
// ---------------------------------------------------------------------------

bool Comm::uses_shm(Rank a, Rank b) const {
  return sides_[a]->links[b].local;
}

KStatus Comm::push_wire(Rank from, Rank to, const WireHeader& header,
                        std::uint64_t payload_offset) {
  const std::uint32_t payload =
      header.kind == MsgKind::Eager ? header.len : 0;
  return push_raw(from, to, header, sides_[from]->heap + payload_offset,
                  payload);
}

KStatus Comm::push_raw(Rank from, Rank to, const WireHeader& header,
                       VAddr src_addr, std::uint32_t payload) {
  Side& s = *sides_[from];
  Side::Link& link = s.links[to];
  simkern::Kernel& kern = cluster_.node(nodes_[from]).kernel();
  const std::uint32_t slot = config_.eager_slot_size;
  assert(sizeof(WireHeader) + payload <= slot);

  // A shared-memory link fills the next send slot of its direction half; a
  // VI link fills its staging slot behind the receive credits.
  const std::uint32_t idx = link.next_slot;
  const VAddr slot_addr =
      link.local
          ? link.shm_base + (static_cast<std::uint64_t>(link.send_dir) *
                                 config_.eager_credits +
                             idx) *
                                slot
          : link.slots.addr(config_.eager_credits);
  if (link.local) link.next_slot = (idx + 1) % config_.eager_credits;
  if (const KStatus st = kern.write_user(s.pid, slot_addr, bytes_of(header));
      !ok(st)) {
    return st;
  }
  if (payload > 0) {
    if (const KStatus st = kern.copy_user(
            s.pid, slot_addr + sizeof(WireHeader), src_addr, payload);
        !ok(st)) {
      return st;
    }
  }

  if (link.local) {
    // Flag the slot; no NIC, no wire.
    auto& queue =
        (*local_queues_.at(std::minmax(from, to)))[link.send_dir];
    assert(queue.size() < config_.eager_credits && "local link overrun");
    kern.clock().advance(kern.costs().mem_touch);  // the flag store
    queue.push_back(idx);
    return KStatus::Ok;
  }
  if (const KStatus st = s.vipl.post_send(
          link.vi, link.slots.handle(), slot_addr,
          static_cast<std::uint32_t>(sizeof(WireHeader)) + payload);
      !ok(st)) {
    return st;
  }
  const auto sc = s.vipl.send_done(link.vi);
  if (!sc || !sc->done_ok()) return KStatus::Proto;
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// Matching engine
// ---------------------------------------------------------------------------

bool Comm::header_matches(const WireHeader& h, std::int32_t source,
                          std::int32_t tag) const {
  if (source != kAnySource && static_cast<Rank>(source) != h.src_rank)
    return false;
  if (tag != kAnyTag && tag != h.tag) return false;
  return true;
}

KStatus Comm::deliver(Rank rank, const WireHeader& msg, VAddr eager_src,
                      Pending& recv) {
  recv.status = MpStatus{msg.src_rank, msg.tag, msg.len};
  const bool truncated = msg.len > recv.max_len;  // MPI_ERR_TRUNCATE
  if (msg.kind == MsgKind::Eager) {
    if (truncated) return recv.fail(KStatus::Inval);
    if (msg.len > 0) {
      Side& s = *sides_[rank];
      if (const KStatus st = cluster_.node(nodes_[rank]).kernel().copy_user(
              s.pid, s.heap + recv.offset, eager_src, msg.len);
          !ok(st)) {
        return recv.fail(st);
      }
    }
    recv.complete = true;
    stats_.bytes += msg.len;
    return KStatus::Ok;
  }
  const KStatus st = truncated ? recv.fail(KStatus::Inval)
                     : sides_[rank]->links[msg.src_rank].local
                         ? deliver_local_pull(rank, msg, recv)
                         : deliver_rendezvous(rank, msg, recv);
  // The FIN tells the sender its buffer is free and completes its request
  // however the receive ended: a failed receive fails only the receiver.
  WireHeader fin;
  fin.kind = MsgKind::RndzFin;
  fin.src_rank = rank;
  fin.sender_req = msg.sender_req;
  fin.trace_id = msg.trace_id;  // the FIN closes out the sender's trace
  fin.span_id = msg.span_id;
  const KStatus fin_st = push_wire(rank, msg.src_rank, fin, 0);
  return ok(st) ? fin_st : st;
}

KStatus Comm::deliver_rendezvous(Rank rank, const WireHeader& req,
                                 Pending& recv) {
  Side& s = *sides_[rank];
  // Register the destination buffer and PULL the payload with RDMA read -
  // true zero-copy, no intermediate buffer on either side.
  via::MemHandle dst;
  if (const KStatus st =
          s.cache->acquire(s.heap + recv.offset, req.len, dst);
      !ok(st)) {
    return recv.fail(st);
  }
  Side::Link& link = s.links[req.src_rank];
  const KStatus st = s.vipl.rdma_read(link.vi, dst, s.heap + recv.offset,
                                      req.len, req.handle, req.addr);
  const auto sc = ok(st) ? s.vipl.send_done(link.vi) : std::nullopt;
  s.cache->release(dst);
  if (!ok(st)) return recv.fail(st);
  if (!sc || !sc->done_ok()) return recv.fail(KStatus::Proto);
  ++stats_.rdma_pulls;
  stats_.bytes += req.len;
  recv.complete = true;
  return KStatus::Ok;
}

bool Comm::handle_system(Rank rank, const WireHeader& header,
                         VAddr slot_addr) {
  if (header.tag != kSysFwdTag && header.tag != kSysAckTag) return false;
  Side& s = *sides_[rank];
  simkern::Kernel& kern = cluster_.node(nodes_[rank]).kernel();
  SysEnvelope env;
  if (!ok(kern.read_user(s.pid, slot_addr + sizeof(WireHeader),
                         std::as_writable_bytes(std::span{&env, 1})))) {
    return true;
  }

  if (env.final_dest != rank) {
    // Intermediate node, for a routed message and its ACK alike: "copies
    // the data into a buffer and resends".
    const Rank hop = route_next(rank, env.final_dest);
    if (hop != kNoRoute) {
      WireHeader fh = header;
      fh.src_rank = rank;
      (void)push_raw(rank, hop, fh, slot_addr + sizeof(WireHeader),
                     header.len);
      ++stats_.indirect_forwards;
    }
    return true;
  }
  if (header.tag == kSysAckTag) {
    // End of the acknowledgement chain: the original send is complete.
    auto it = requests_.find(env.sender_req);
    if (it != requests_.end()) it->second->complete = true;
    return true;
  }

  // A routed user message at its destination. "The receive happens
  // implicitly": synthesize the arrival and run the normal matching engine
  // on the inner message. The hops preserved the origin's trace context.
  WireHeader synth;
  synth.tag = env.orig_tag;
  synth.src_rank = env.orig_src;
  synth.len = env.len;
  synth.trace_id = header.trace_id;
  synth.span_id = header.span_id;
  process_arrival(rank, synth, slot_addr + sizeof(SysEnvelope));
  // Acknowledge back to the origin (routed if need be); the ACK chain stays
  // in the trace.
  SysEnvelope ack = env;
  ack.final_dest = env.orig_src;
  ack.orig_src = rank;
  WireHeader ah;
  ah.tag = kSysAckTag;
  ah.src_rank = rank;
  ah.len = sizeof(SysEnvelope);
  ah.trace_id = header.trace_id;
  ah.span_id = header.span_id;
  (void)kern.write_user(s.pid, s.sys_scratch, bytes_of(ack));
  const Rank hop = route_next(rank, ack.final_dest);
  if (hop != kNoRoute) {
    (void)push_raw(rank, hop, ah, s.sys_scratch, sizeof(SysEnvelope));
  }
  return true;
}

void Comm::process_arrival(Rank rank, const WireHeader& header,
                           VAddr slot_addr) {
  if (handle_system(rank, header, slot_addr)) return;
  Side& s = *sides_[rank];
  simkern::Kernel& kern = cluster_.node(nodes_[rank]).kernel();

  // Adopt the in-band context: the matching engine's work for this arrival
  // (landing-slot copies, the RDMA pull, the FIN) nests under the sender's
  // mp.isend span even though it runs on a different host's recorder.
  const obs::ScopedTraceContext arrival_ctx(
      kern.spans(), obs::TraceContext{header.trace_id, header.span_id, 0});
  const obs::ScopedSpan arrival_span(kern.spans(), "mp.arrival");

  switch (header.kind) {
    case MsgKind::RndzFin: {
      auto it = requests_.find(header.sender_req);
      if (it != requests_.end()) {
        Pending& send = *it->second;
        if (send.src_registered) {
          sides_[send.rank]->cache->release(send.src_handle);
          send.src_registered = false;
        }
        send.complete = true;
      }
      break;
    }
    case MsgKind::Eager:
    case MsgKind::RndzReq: {
      // Try the posted-receive queue in post order.
      Pending* match = nullptr;
      for (auto it = s.posted.begin(); it != s.posted.end(); ++it) {
        Pending& cand = *requests_.at(*it);
        if (header_matches(header, cand.want_source, cand.want_tag)) {
          match = &cand;
          s.posted.erase(it);
          break;
        }
      }
      if (match) {
        // An eager payload is copied straight from the landing slot into
        // the user buffer.
        ++stats_.expected_msgs;
        (void)deliver(rank, header, slot_addr + sizeof(WireHeader), *match);
      } else if (header.kind == MsgKind::RndzReq) {
        s.unexpected.push_back(UnexpectedMsg{header, 0});
        ++stats_.unexpected_msgs;
      } else {
        // Park in the unexpected arena.
        const std::uint32_t arena_slot = s.alloc_arena_slot();
        if (arena_slot == static_cast<std::uint32_t>(-1)) {
          ++s.arena_overflows;
        } else {
          if (header.len > 0) {
            (void)kern.copy_user(
                s.pid,
                s.arena + static_cast<std::uint64_t>(arena_slot) *
                              config_.eager_slot_size,
                slot_addr + sizeof(WireHeader), header.len);
          }
          s.unexpected.push_back(UnexpectedMsg{header, arena_slot});
          ++stats_.unexpected_msgs;
        }
      }
      break;
    }
  }
}

bool Comm::drain(Rank rank) {
  bool activity = false;
  Side& s = *sides_[rank];
  simkern::Kernel& kern = cluster_.node(nodes_[rank]).kernel();
  for (Rank peer = 0; peer < size(); ++peer) {
    if (peer == rank) continue;
    Side::Link& link = s.links[peer];

    if (link.local) {
      // Poll the shared-memory flags of the incoming direction.
      const std::uint32_t recv_dir = 1 - link.send_dir;
      auto& queue = (*local_queues_.at(std::minmax(rank, peer)))[recv_dir];
      while (!queue.empty()) {
        const std::uint32_t idx = queue.front();
        queue.pop_front();
        const VAddr slot_addr =
            link.shm_base +
            (static_cast<std::uint64_t>(recv_dir) * config_.eager_credits +
             idx) *
                config_.eager_slot_size;
        kern.clock().advance(kern.costs().mem_touch);  // the flag load
        WireHeader header;
        if (!ok(kern.read_user(
                s.pid, slot_addr,
                std::as_writable_bytes(std::span{&header, 1})))) {
          continue;
        }
        ++stats_.local_msgs;
        activity = true;
        process_arrival(rank, header, slot_addr);
      }
      continue;
    }

    if (link.vi == via::kInvalidVi) continue;
    for (;;) {
      const auto rc = s.vipl.recv_done(link.vi);
      if (!rc) break;
      if (!rc->done_ok()) continue;  // connection error: drop
      const auto slot_idx = static_cast<std::uint32_t>(rc->cookie);
      const VAddr slot_addr = link.slots.addr(slot_idx);
      WireHeader header;
      if (!ok(kern.read_user(s.pid, slot_addr,
                             std::as_writable_bytes(std::span{&header, 1})))) {
        continue;
      }
      activity = true;
      process_arrival(rank, header, slot_addr);
      // Re-arm the consumed slot.
      (void)link.slots.repost(slot_idx);
    }
  }
  return activity;
}

KStatus Comm::deliver_local_pull(Rank rank, const WireHeader& req,
                                 Pending& recv) {
  // Large local message: pipeline the payload through the link's shm bounce
  // region (two copies per chunk - the classic shared-memory long protocol).
  Side& rcv = *sides_[rank];
  Side& snd = *sides_[req.src_rank];
  simkern::Kernel& kern = cluster_.node(nodes_[rank]).kernel();
  const std::uint64_t bounce_off =
      2ULL * config_.eager_credits * config_.eager_slot_size;
  const VAddr snd_bounce = snd.links[rank].shm_base + bounce_off;
  const VAddr rcv_bounce = rcv.links[req.src_rank].shm_base + bounce_off;
  // req.addr carries the sender's *heap offset* on local links.
  std::uint64_t done = 0;
  while (done < req.len) {
    const auto chunk = std::min<std::uint64_t>(kLocalBounceBytes,
                                               req.len - done);
    if (const KStatus st = kern.copy_user(snd.pid, snd_bounce,
                                          snd.heap + req.addr + done, chunk);
        !ok(st)) {
      return recv.fail(st);
    }
    if (const KStatus st = kern.copy_user(
            rcv.pid, rcv.heap + recv.offset + done, rcv_bounce, chunk);
        !ok(st)) {
      return recv.fail(st);
    }
    kern.clock().advance(2 * kern.costs().mem_touch);  // per-chunk handshake
    done += chunk;
  }
  ++stats_.local_pulls;
  stats_.bytes += req.len;
  recv.complete = true;
  return KStatus::Ok;
}

void Comm::progress() {
  // Routed (multi-hop) messages generate new traffic while draining, so
  // sweep until the whole system is quiescent (bounded defensively).
  bool again = true;
  for (int sweep = 0; again && sweep < 64; ++sweep) {
    again = false;
    for (Rank r = 0; r < size(); ++r) again |= drain(r);
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

ReqId Comm::isend(Rank rank, Rank dest, std::int32_t tag, std::uint64_t offset,
                  std::uint32_t len) {
  if (tag < 0) return kInvalidReq;  // negative tags are reserved
  return isend_internal(rank, dest, tag, offset, len);
}

Comm::Pending& Comm::new_request(Rank rank, ReqId& id) {
  id = next_req_++;
  Pending& req = *requests_.emplace(id, std::make_unique<Pending>())
                      .first->second;
  req.rank = rank;
  return req;
}

ReqId Comm::isend_indirect(Rank rank, Rank dest, std::int32_t tag,
                           std::uint64_t offset, std::uint32_t len) {
  ReqId id = kInvalidReq;
  Pending& req = new_request(rank, id);
  Side& s = *sides_[rank];
  simkern::Kernel& kern = cluster_.node(nodes_[rank]).kernel();

  // Wrap the user message in a system envelope and hand it to the first
  // hop; the request completes when the end-to-end ACK returns.
  const std::uint32_t capacity =
      config_.eager_slot_size -
      static_cast<std::uint32_t>(sizeof(WireHeader) + sizeof(SysEnvelope));
  const Rank hop = route_next(rank, dest);
  const SysEnvelope env{dest, rank, tag, len, id};
  if (len > capacity || hop == kNoRoute ||
      !ok(kern.write_user(s.pid, s.sys_scratch, bytes_of(env))) ||
      (len > 0 &&
       !ok(kern.copy_user(s.pid, s.sys_scratch + sizeof(SysEnvelope),
                          s.heap + offset, len)))) {
    req.fail(KStatus::Inval);
    return id;
  }
  const obs::ScopedSpan send_span(kern.spans(), "mp.isend.indirect");
  const obs::TraceContext send_ctx = send_span.carried_context();
  WireHeader h;
  h.tag = kSysFwdTag;
  h.src_rank = rank;
  h.len = static_cast<std::uint32_t>(sizeof(SysEnvelope)) + len;
  h.trace_id = send_ctx.trace_id;
  h.span_id = send_ctx.span_id;
  if (const KStatus st = push_raw(rank, hop, h, s.sys_scratch, h.len);
      !ok(st)) {
    req.fail(st);
  }
  ++stats_.indirect_sends;
  progress();
  return id;
}

ReqId Comm::isend_internal(Rank rank, Rank dest, std::int32_t tag,
                           std::uint64_t offset, std::uint32_t len) {
  assert(initialised_ && rank < size() && dest < size() && rank != dest);
  if (config_.lazy_links && !has_direct_link(rank, dest) &&
      !ok(ensure_link(rank, dest))) {
    return kInvalidReq;
  }
  if (!has_direct_link(rank, dest)) {
    return isend_indirect(rank, dest, tag, offset, len);
  }
  ReqId id = kInvalidReq;
  Pending& req = new_request(rank, id);

  // One span per send on the sending rank's host; its context rides in the
  // header so the receiving rank's arrival spans join the same trace. Under
  // a collective the ambient context makes this a child of the collective.
  const obs::ScopedSpan send_span(
      cluster_.node(nodes_[rank]).kernel().spans(), "mp.isend");
  const obs::TraceContext send_ctx = send_span.carried_context();
  WireHeader header;
  header.tag = tag;
  header.src_rank = rank;
  header.len = len;
  header.trace_id = send_ctx.trace_id;
  header.span_id = send_ctx.span_id;

  const std::uint32_t eager_capacity =
      config_.eager_slot_size - static_cast<std::uint32_t>(sizeof(WireHeader));
  if (len <= kEagerThreshold && len <= eager_capacity) {
    req.complete = true;  // buffered: the user buffer is free again
    if (const KStatus st = push_wire(rank, dest, header, offset); !ok(st)) {
      req.fail(st);
    }
    ++stats_.eager_sends;  // bytes are counted at delivery
  } else if (sides_[rank]->links[dest].local) {
    // Local long protocol: no registration needed - the payload will be
    // pipelined through the shared segment when the receive matches. The
    // header advertises the sender's heap offset.
    header.kind = MsgKind::RndzReq;
    header.sender_req = id;
    header.addr = offset;
    if (const KStatus st = push_wire(rank, dest, header, 0); !ok(st)) {
      req.fail(st);
    }
    ++stats_.rendezvous_sends;
  } else {
    // Rendezvous: register the source buffer, advertise it, await the FIN.
    Side& s = *sides_[rank];
    if (const KStatus st =
            s.cache->acquire(s.heap + offset, len, req.src_handle);
        !ok(st)) {
      req.fail(st);
    } else {
      req.src_registered = true;
      header.kind = MsgKind::RndzReq;
      header.sender_req = id;
      header.handle = req.src_handle;
      header.addr = s.heap + offset;
      if (const KStatus push_st = push_wire(rank, dest, header, 0);
          !ok(push_st)) {
        s.cache->release(req.src_handle);
        req.src_registered = false;
        req.fail(push_st);
      }
      ++stats_.rendezvous_sends;
    }
  }
  progress();
  return id;
}

ReqId Comm::irecv(Rank rank, std::int32_t source, std::int32_t tag,
                  std::uint64_t offset, std::uint32_t max_len) {
  if (tag < 0 && tag != kAnyTag) return kInvalidReq;
  return irecv_internal(rank, source, tag, offset, max_len);
}

ReqId Comm::irecv_internal(Rank rank, std::int32_t source, std::int32_t tag,
                           std::uint64_t offset, std::uint32_t max_len) {
  assert(initialised_ && rank < size());
  progress();  // be current before matching
  ReqId id = kInvalidReq;
  Pending& req = new_request(rank, id);
  req.kind = Pending::Kind::Recv;
  req.want_source = source;
  req.want_tag = tag;
  req.offset = offset;
  req.max_len = max_len;

  // First look for an already-arrived message (arrival order).
  Side& s = *sides_[rank];
  for (auto it = s.unexpected.begin(); it != s.unexpected.end(); ++it) {
    if (!header_matches(it->header, source, tag)) continue;
    const UnexpectedMsg msg = *it;
    s.unexpected.erase(it);
    // Late match: re-adopt the context the message carried when it arrived.
    const obs::ScopedTraceContext late_ctx(
        cluster_.node(nodes_[rank]).kernel().spans(),
        obs::TraceContext{msg.header.trace_id, msg.header.span_id, 0});
    (void)deliver(rank, msg.header,
                  s.arena + static_cast<std::uint64_t>(msg.arena_slot) *
                                config_.eager_slot_size,
                  req);
    if (msg.header.kind == MsgKind::Eager) s.free_arena_slot(msg.arena_slot);
    progress();  // the FIN may complete a sender right away
    return id;
  }

  s.posted.push_back(id);
  return id;
}

bool Comm::test(ReqId req, MpStatus* status) {
  progress();
  auto it = requests_.find(req);
  if (it == requests_.end()) return false;
  if (!it->second->complete) return false;
  if (status) *status = it->second->status;
  return true;
}

bool Comm::wait(ReqId req, MpStatus* status) {
  // Synchronous simulation: one progress pass is all the forward motion
  // there is. A request that stays incomplete needs a remote operation that
  // has not been issued yet - a deadlock in real MPI too.
  if (test(req, status)) {
    const bool failed = requests_.at(req)->failed;
    requests_.erase(req);
    return !failed;
  }
  return false;
}

KStatus Comm::send(Rank rank, Rank dest, std::int32_t tag,
                   std::uint64_t offset, std::uint32_t len) {
  const ReqId id = isend(rank, dest, tag, offset, len);
  // Eager completes immediately; rendezvous completes once the receiver
  // posts. A blocking send that cannot finish yet stays pending - callers
  // pair it with a recv and the FIN resolves it; report current state.
  MpStatus st;
  return test(id, &st) && wait(id) ? KStatus::Ok : KStatus::Again;
}

KStatus Comm::recv(Rank rank, std::int32_t source, std::int32_t tag,
                   std::uint64_t offset, std::uint32_t max_len,
                   MpStatus* status) {
  const ReqId id = irecv(rank, source, tag, offset, max_len);
  return wait(id, status) ? KStatus::Ok : KStatus::Again;
}

bool Comm::iprobe(Rank rank, std::int32_t source, std::int32_t tag,
                  MpStatus* status) {
  progress();
  Side& s = *sides_[rank];
  for (const auto& msg : s.unexpected) {
    if (header_matches(msg.header, source, tag)) {
      if (status)
        *status = MpStatus{msg.header.src_rank, msg.header.tag, msg.header.len};
      return true;
    }
  }
  return false;
}

}  // namespace vialock::mp
