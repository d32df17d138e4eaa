#include "svc/kv_client.h"

#include <array>
#include <cassert>

#include "fault/fault.h"
#include "msg/wire.h"
#include "svc/kv_server.h"

namespace vialock::svc {

using simkern::page_align_up;
using simkern::VAddr;

KvClient::KvClient(via::Cluster& cluster, via::NodeId node,
                   std::string task_name, KvClientConfig config)
    : cluster_(cluster),
      node_(cluster.node(node)),
      node_id_(node),
      task_name_(std::move(task_name)),
      config_(config) {}

KvClient::~KvClient() {
  for (Conn& c : conns_) {
    if (c.open) teardown_conn(c);
  }
  if (pid_ == simkern::kInvalidPid) return;
  node_.agent().release_tenant(pid_);
  node_.kernel().exit_task(pid_);
}

KStatus KvClient::open() {
  if (config_.window == 0 || config_.slot_size < sizeof(KvRequest) ||
      config_.slot_size < sizeof(KvResponse) || config_.completion_batch == 0)
    return KStatus::Inval;
  pid_ = node_.kernel().create_task(task_name_);
  vipl_ = std::make_unique<via::Vipl>(node_.agent(), pid_);
  if (const KStatus st = vipl_->open(); !ok(st)) return st;
  recv_cq_ = node_.nic().create_cq();
  send_cq_ = node_.nic().create_cq();
  return KStatus::Ok;
}

KStatus KvClient::connect(KvServer& server, std::uint32_t tenant,
                          std::uint32_t& conn_out) {
  conn_out = UINT32_MAX;
  if (!vipl_) return KStatus::Proto;
  if (config_.window > server.config().recv_credits) return KStatus::Inval;

  // A closed connection's VI, ring and window memory are reused; what is
  // missing is minted or mapped.
  Spare spare;
  if (!spares_.empty()) {
    spare = spares_.back();
    spares_.pop_back();
  }
  const bool fresh_vi = spare.vi == via::kInvalidVi;
  if (fresh_vi) {
    if (const KStatus st = vipl_->create_vi(spare.vi); !ok(st)) return st;
  }
  const auto mapped = [this](VAddr& mem, std::uint64_t bytes) {
    if (mem == 0) {
      mem = node_.kernel()
                .sys_mmap_anon(pid_, page_align_up(bytes),
                               simkern::VmFlag::Read | simkern::VmFlag::Write)
                .value_or(0);
    }
    return mem != 0;
  };
  if (!mapped(spare.ring, ring_bytes()) ||
      !mapped(spare.window, window_bytes())) {
    spares_.push_back(spare);
    return KStatus::NoMem;
  }

  // Declared window first, so an early return releases the rings before the
  // window, as teardown_conn() does. The response receives are posted before
  // the server can reply - the whole window behind one doorbell.
  via::SlotRing window;
  via::SlotRing rings;
  if (const KStatus st = rings.open(
          *vipl_, spare.vi, spare.ring, ring_bytes(), config_.slot_size,
          config_.window, config_.window, cookie_of(next_gen_, 0),
          via::KernelAgent::RegisterOptions::send_recv_only());
      !ok(st)) {
    spares_.push_back(spare);
    return st;
  }
  // The value window takes inbound RDMA writes (GET) and outbound reads
  // (PUT) - fully RDMA-enabled, the "communicated out of band" region.
  if (const KStatus st =
          window.open(*vipl_, spare.vi, spare.window, window_bytes(),
                      config_.value_window_bytes, 0, 0);
      !ok(st)) {
    spares_.push_back(spare);
    return st;
  }

  if (fresh_vi) {
    if (!ok(node_.nic().attach_recv_cq(spare.vi, recv_cq_)) ||
        !ok(node_.nic().attach_send_cq(spare.vi, send_cq_))) {
      spares_.push_back(spare);
      return KStatus::Inval;
    }
  }

  const std::uint32_t gen = next_gen_++;
  std::uint32_t server_conn = 0;
  if (const KStatus st = server.accept(tenant, node_id_, spare.vi, server_conn);
      !ok(st)) {
    // Shed or rejected: the rings take their posted receives back.
    spares_.push_back(spare);
    return st;
  }
  const std::uint32_t id = claim(conns_, free_conns_);
  Conn& c = conns_[id];
  c.gen = gen;
  c.vi = spare.vi;
  c.rings = std::move(rings);
  c.window = std::move(window);
  c.pending.assign(config_.window, Pending{});
  c.open = true;
  c.server_conn = server_conn;
  vi_to_conn_.bind(spare.vi, id);
  ++stats_.conns_opened;
  ++open_conns_;
  conn_out = id;
  return KStatus::Ok;
}

void KvClient::teardown_conn(Conn& c) {
  (void)cluster_.fabric().disconnect(node_id_, c.vi);  // Proto if already down
  spares_.push_back({c.vi, c.rings.addr(0), c.window.addr(0)});
  c.rings.close();
  c.window.close();
  for (const Pending& p : c.pending) stats_.requests_lost += p.req_id != 0;
  vi_to_conn_.unbind(c.vi);
  free_conns_.push_back(static_cast<std::uint32_t>(&c - conns_.data()));
  c.open = false;
  --open_conns_;
}

KStatus KvClient::close(std::uint32_t conn) {
  if (conn >= conns_.size() || !conns_[conn].open) return KStatus::Inval;
  teardown_conn(conns_[conn]);
  ++stats_.conns_closed;
  return KStatus::Ok;
}

KStatus KvClient::abandon(std::uint32_t conn) {
  if (conn >= conns_.size() || !conns_[conn].open) return KStatus::Inval;
  teardown_conn(conns_[conn]);
  ++stats_.conns_abandoned;
  return KStatus::Ok;
}

bool KvClient::can_issue(std::uint32_t conn) const {
  return conn < conns_.size() && conns_[conn].open &&
         conns_[conn].inflight < config_.window;
}

std::uint32_t KvClient::slot_of(const Conn& c, std::uint64_t req_id) const {
  for (std::uint32_t i = 0; i < config_.window; ++i) {
    if (c.pending[i].req_id == req_id) return i;
  }
  return config_.window;
}

KStatus KvClient::stage(std::uint32_t conn, KvRequest req,
                        std::span<const std::byte> inline_value,
                        std::uint64_t& req_id_out) {
  Conn& c = conns_[conn];
  const std::uint32_t slot = slot_of(c, 0);
  if (slot == config_.window) return KStatus::Busy;

  req.req_id = next_req_id_++;
  if (req.rendezvous) {
    req.window = c.window.handle();
    req.window_addr = c.window.addr(slot);
  }

  std::array<std::byte, sizeof(KvRequest)> hdr{};
  static_cast<void>(msg::wire::store_pod(std::span<std::byte>(hdr), req));
  const VAddr addr = c.rings.addr(slot);
  if (!ok(node_.kernel().write_user(pid_, addr, hdr))) return KStatus::Fault;
  if (!inline_value.empty()) {
    if (!ok(node_.kernel().write_user(pid_, addr + sizeof(KvRequest),
                                      inline_value)))
      return KStatus::Fault;
  }

  c.staged.push_back(via::Vipl::Post{
      c.rings.handle(), addr,
      static_cast<std::uint32_t>(sizeof(KvRequest) + inline_value.size()),
      cookie_of(c.gen, slot)});
  ++c.inflight;
  c.pending[slot] = Pending{req.req_id, req.op, req.key, req.rendezvous != 0};
  req_id_out = req.req_id;
  return KStatus::Ok;
}

KStatus KvClient::put(std::uint32_t conn, std::uint64_t key,
                      std::span<const std::byte> value,
                      std::uint64_t& req_id_out) {
  req_id_out = 0;
  if (!can_issue(conn)) return KStatus::Busy;
  if (value.empty()) return KStatus::Inval;

  KvRequest req;
  req.op = KvOp::Put;
  req.key = key;
  req.value_len = static_cast<std::uint32_t>(value.size());
  req.value_crc = fault::checksum32(value);

  const bool inline_ok =
      value.size() <= config_.inline_threshold &&
      sizeof(KvRequest) + value.size() <= config_.slot_size;
  if (inline_ok) {
    if (const KStatus st = stage(conn, req, value, req_id_out); !ok(st))
      return st;
    stats_.inline_bytes += value.size();
  } else {
    if (value.size() > config_.value_window_bytes) return KStatus::Inval;
    req.rendezvous = 1;
    // The value goes into this slot's window for the server to RDMA-read.
    // stage() picks the slot, so write the bytes after it succeeds.
    if (const KStatus st = stage(conn, req, {}, req_id_out); !ok(st))
      return st;
    const Conn& c = conns_[conn];
    const std::uint32_t slot = slot_of(c, req_id_out);
    if (!ok(node_.kernel().write_user(pid_, c.window.addr(slot), value)))
      return KStatus::Fault;
    stats_.rendezvous_bytes += value.size();
  }
  ++stats_.puts;
  return KStatus::Ok;
}

KStatus KvClient::get(std::uint32_t conn, std::uint64_t key,
                      std::uint64_t& req_id_out) {
  req_id_out = 0;
  if (!can_issue(conn)) return KStatus::Busy;
  KvRequest req;
  req.op = KvOp::Get;
  req.key = key;
  // A large value lands in the slot's window; advertise its capacity.
  req.value_len = config_.value_window_bytes;
  req.rendezvous = 1;  // window available - the server picks the path
  if (const KStatus st = stage(conn, req, {}, req_id_out); !ok(st)) return st;
  ++stats_.gets;
  return KStatus::Ok;
}

std::uint32_t KvClient::flush(std::uint32_t conn) {
  if (conn >= conns_.size() || !conns_[conn].open) return 0;
  Conn& c = conns_[conn];
  if (c.staged.empty()) return 0;
  const auto n = static_cast<std::uint32_t>(c.staged.size());
  (void)vipl_->post_send(c.vi, c.staged);
  if (n > 1) ++stats_.doorbell_flushes;
  c.staged.clear();
  return n;
}

std::uint32_t KvClient::harvest_sends() {
  harvest_buf_.clear();
  const std::uint32_t n =
      node_.nic().poll_cq(send_cq_, config_.completion_batch, harvest_buf_);
  for (const via::Nic::CqEntry& e : harvest_buf_) {
    if (e.desc.status == via::DescStatus::Done) continue;
    ++stats_.send_errors;
    const std::uint32_t id = vi_to_conn_.find(e.vi);
    if (id == ViConnTable::kNoConn) continue;
    Conn& c = conns_[id];
    if (c.open && gen_matches(e.desc.cookie, c.gen)) ++stats_.broken_conns;
  }
  return n;
}

std::uint32_t KvClient::harvest(std::vector<KvResult>& out) {
  (void)harvest_sends();
  harvest_buf_.clear();
  (void)node_.nic().poll_cq(recv_cq_, config_.completion_batch, harvest_buf_);
  std::uint32_t produced = 0;
  for (const via::Nic::CqEntry& e : harvest_buf_) {
    const std::uint32_t id = vi_to_conn_.find(e.vi);
    if (id == ViConnTable::kNoConn) {
      ++stats_.stale_completions;
      continue;
    }
    Conn& c = conns_[id];
    if (!c.open || !gen_matches(e.desc.cookie, c.gen) || !e.desc.done_ok()) {
      ++stats_.stale_completions;
      continue;
    }
    const auto rslot = static_cast<std::uint32_t>(e.desc.cookie & 0xFFFFFFFFu);
    const VAddr raddr = rsp_slot(c, rslot);

    KvResponse rsp;
    std::array<std::byte, sizeof(KvResponse)> hdr{};
    const bool parsed =
        e.desc.transferred >= sizeof(KvResponse) &&
        ok(node_.kernel().read_user(pid_, raddr, hdr)) &&
        msg::wire::load_pod(hdr, rsp) && rsp.magic == kRspMagic;
    // Return the response credit regardless of what was in the slot.
    (void)c.rings.repost(rslot);
    if (!parsed) {
      ++stats_.bad_responses;
      continue;
    }
    const std::uint32_t slot =
        rsp.req_id == 0 ? config_.window : slot_of(c, rsp.req_id);
    if (slot == config_.window) {
      ++stats_.bad_responses;
      continue;
    }
    const Pending p = c.pending[slot];
    c.pending[slot] = Pending{};
    if (c.inflight) --c.inflight;

    KvResult r;
    r.req_id = rsp.req_id;
    r.key = p.key;
    r.op = p.op;
    r.status = rsp.status;
    r.rendezvous = rsp.rendezvous != 0;
    r.value_len = rsp.value_len;
    r.value_crc = rsp.value_crc;
    // End-to-end integrity: recompute the checksum over the bytes as they
    // arrived - inline behind the header, or RDMA-written into the window.
    if (p.op == KvOp::Get && rsp.status == KvStatus::Ok) {
      const VAddr vaddr = rsp.rendezvous ? c.window.addr(slot)
                                         : raddr + sizeof(KvResponse);
      value_buf_.resize(rsp.value_len);
      r.data_ok = ok(node_.kernel().read_user(pid_, vaddr, value_buf_)) &&
                  fault::checksum32(value_buf_) == rsp.value_crc;
      if (!r.data_ok) ++stats_.data_corrupt;
      if (rsp.rendezvous)
        stats_.rendezvous_bytes += rsp.value_len;
      else
        stats_.inline_bytes += rsp.value_len;
    }
    ++stats_.responses;
    out.push_back(r);
    ++produced;
  }
  return produced;
}

void KvClient::fill_value(std::span<std::byte> out, std::uint64_t key,
                          std::uint64_t seed) {
  // SplitMix64-flavoured stream: reproducible on any host, cheap to regen.
  // Each step's 8 bytes land little-endian: one whole word per step, the
  // last step's bytes cut short by the end of `out`.
  std::uint64_t x = seed ^ (key * 0x9E3779B97F4A7C15ULL);
  const auto step = [&x] {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    x = z ^ (z >> 31);
  };
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    step();
    // Through a pointer, as in fault::checksum32: GCC merges the eight byte
    // stores into one 8-byte store.
    std::byte* word = out.data() + i;
    const auto put = [word, x](std::size_t b) {
      word[b] = static_cast<std::byte>(x >> (8 * b));
    };
    put(0); put(1); put(2); put(3);
    put(4); put(5); put(6); put(7);
  }
  if (i < out.size()) {
    step();
    for (std::size_t b = 0; i + b < out.size(); ++b)
      out[i + b] = static_cast<std::byte>(x >> (8 * b));
  }
}

}  // namespace vialock::svc
