#include "svc/kv_server.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "fault/fault.h"
#include "msg/wire.h"
#include "util/clock.h"

namespace vialock::svc {

using simkern::page_align_up;
using simkern::VAddr;
using via::MemHandle;

namespace {

/// Idle registrations each tenant's arena cache keeps.
inline constexpr std::size_t kCacheMaxIdle = 256;

}  // namespace

KvServer::KvServer(via::Cluster& cluster, via::NodeId node,
                   KvServerConfig config)
    : cluster_(cluster),
      node_(cluster.node(node)),
      node_id_(node),
      config_(config),
      op_ns_(node_.kernel().metrics().histogram("svc.kv.op_ns")) {
  node_.kernel().metrics().register_source("svc", this, [this](
                                                           obs::MetricSink& s) {
    s.counter("conns_accepted", stats_.conns_accepted);
    s.counter("conns_shed", stats_.conns_shed);
    s.counter("conns_closed", stats_.conns_closed);
    s.counter("conn_abandoned", stats_.conns_abandoned);
    s.counter("admission_rejected", stats_.admission_rejected);
    s.counter("requests", stats_.requests);
    s.counter("gets", stats_.gets);
    s.counter("puts", stats_.puts);
    s.counter("not_found", stats_.not_found);
    s.counter("bad_requests", stats_.bad_requests);
    s.counter("corrupt_payloads", stats_.corrupt_payloads);
    s.counter("arena_full", stats_.arena_full);
    s.counter("inline_bytes", stats_.inline_bytes);
    s.counter("eager_copies", stats_.eager_copies);
    s.counter("rendezvous_ops", stats_.rendezvous_ops);
    s.counter("rendezvous_bytes", stats_.rendezvous_bytes);
    s.counter("rendezvous_failed", stats_.rendezvous_failed);
    s.counter("batches", stats_.batches);
    s.counter("batched_completions", stats_.batched_completions);
    s.counter("batched_replies", stats_.batched_replies);
    s.counter("requests_dropped", stats_.requests_dropped);
    s.counter("send_errors", stats_.send_errors);
    s.gauge("open_conns", open_conns_);
    // SLO-relevant backpressure gauges: replies posted but not yet seen
    // complete (pipeline depth the watchdogs track alongside op_ns.p99),
    // and how much of the tenant value arenas is bump-allocated.
    std::uint64_t inflight = 0;
    for (const Conn& c : conns_)
      if (c.open) inflight += c.rsp_inflight;
    s.gauge("rsp_inflight", inflight);
    std::uint64_t arena_used = 0;
    for (const auto& t : tenants_) arena_used += t->arena_off;
    s.gauge("arena_used_bytes", arena_used);
  });
}

KvServer::~KvServer() {
  shutdown();
  node_.kernel().metrics().unregister_source("svc", this);
}

KStatus KvServer::init() {
  if (config_.recv_credits == 0 || config_.completion_batch == 0)
    return KStatus::Inval;
  if (config_.slot_size < sizeof(KvRequest) ||
      config_.slot_size < sizeof(KvResponse))
    return KStatus::Inval;
  if (config_.inline_threshold > inline_capacity()) return KStatus::Inval;
  recv_cq_ = node_.nic().create_cq();
  send_cq_ = node_.nic().create_cq();
  return KStatus::Ok;
}

std::uint32_t KvServer::inline_capacity() const {
  const auto hdr = static_cast<std::uint32_t>(
      std::max(sizeof(KvRequest), sizeof(KvResponse)));
  return config_.slot_size > hdr ? config_.slot_size - hdr : 0;
}

std::uint32_t KvServer::add_tenant(const TenantConfig& cfg) {
  auto t = std::make_unique<Tenant>();
  t->name = cfg.name;
  t->tier = cfg.tier;
  t->pid = node_.kernel().create_task("kv." + cfg.name);
  t->vipl = std::make_unique<via::Vipl>(node_.agent(), t->pid);
  const KStatus ost = t->vipl->open();
  assert(ok(ost));
  (void)ost;
  if (auto* gov = node_.governor())
    gov->set_tenant(t->pid, cfg.quota_pages, cfg.tier);
  const auto arena = node_.kernel().sys_mmap_anon(
      t->pid, page_align_up(config_.arena_bytes),
      simkern::VmFlag::Read | simkern::VmFlag::Write);
  t->arena = arena.value_or(0);
  core::RegistrationCache::Config cc;
  cc.max_idle = kCacheMaxIdle;
  cc.governor = node_.governor();
  t->cache = std::make_unique<core::RegistrationCache>(*t->vipl, cc);
  tenants_.push_back(std::move(t));
  return static_cast<std::uint32_t>(tenants_.size() - 1);
}

KStatus KvServer::accept(std::uint32_t tenant, via::NodeId client_node,
                         via::ViId client_vi, std::uint32_t& conn_out) {
  conn_out = UINT32_MAX;
  if (shut_down_ || tenant >= tenants_.size()) return KStatus::Inval;
  Tenant& t = *tenants_[tenant];

  // Admission probe before any registration work: a BestEffort tenant whose
  // headroom cannot cover the slot rings is shed here, cheaply. Guaranteed
  // tenants proceed - the charge path drains and reclaims on their behalf.
  const auto ring_pages = static_cast<std::uint32_t>(
      page_align_up(ring_bytes()) / simkern::kPageSize);
  if (auto* gov = node_.governor();
      gov && t.tier == pinmgr::QosTier::BestEffort &&
      gov->admission_headroom(t.pid) < ring_pages) {
    ++stats_.conns_shed;
    return KStatus::Again;
  }

  // A closed connection's VI (the NIC never destroys VIs) and ring memory
  // are reused; what is missing is minted or mapped.
  Spare spare;
  if (!t.spares.empty()) {
    spare = t.spares.back();
    t.spares.pop_back();
  }
  const bool fresh_vi = spare.vi == via::kInvalidVi;
  if (fresh_vi) {
    if (const KStatus st = t.vipl->create_vi(spare.vi); !ok(st)) return st;
  }
  if (spare.ring == 0) {
    spare.ring = node_.kernel()
                     .sys_mmap_anon(t.pid, page_align_up(ring_bytes()),
                                    simkern::VmFlag::Read | simkern::VmFlag::Write)
                     .value_or(0);
  }
  if (spare.ring == 0) {
    t.spares.push_back(spare);
    return KStatus::NoMem;
  }

  // The registration is the governed step: this is where quota/ceiling bite.
  // The ring arms the whole request ring with one gather-list doorbell.
  via::SlotRing ring;
  if (const KStatus st = ring.open(
          *t.vipl, spare.vi, spare.ring, ring_bytes(), config_.slot_size, 0,
          config_.recv_credits, cookie_of(next_gen_, 0),
          via::KernelAgent::RegisterOptions::send_recv_only());
      !ok(st)) {
    ++stats_.admission_rejected;
    t.spares.push_back(spare);
    return st;
  }

  if (fresh_vi) {
    if (!ok(t.vipl->attach_recv_cq(spare.vi, recv_cq_)) ||
        !ok(t.vipl->attach_send_cq(spare.vi, send_cq_))) {
      t.spares.push_back(spare);
      return KStatus::Inval;
    }
  }

  if (const KStatus st =
          cluster_.fabric().connect(node_id_, spare.vi, client_node, client_vi);
      !ok(st)) {
    t.spares.push_back(spare);
    return st;
  }

  const std::uint32_t id = claim(conns_, free_conns_);
  Conn& c = conns_[id];
  c.open = true;
  c.tenant = tenant;
  c.gen = next_gen_++;
  c.vi = spare.vi;
  c.ring = std::move(ring);
  vi_to_conn_.bind(spare.vi, id);

  ++stats_.conns_accepted;
  ++open_conns_;
  conn_out = id;
  return KStatus::Ok;
}

KStatus KvServer::close(std::uint32_t conn) {
  if (conn >= conns_.size() || !conns_[conn].open) return KStatus::Inval;
  teardown_conn(conns_[conn], /*abrupt=*/false);
  ++stats_.conns_closed;
  return KStatus::Ok;
}

void KvServer::abandon(std::uint32_t conn) {
  if (conn >= conns_.size() || !conns_[conn].open) return;
  teardown_conn(conns_[conn], /*abrupt=*/true);
  ++stats_.conns_abandoned;
}

void KvServer::teardown_conn(Conn& c, bool abrupt) {
  Tenant& t = tenant_of(c);
  (void)cluster_.fabric().disconnect(node_id_, c.vi);  // Proto if already down
  // The ring discards the incarnation's posted descriptors and per-VI
  // completions before it deregisters: a reused VI must not scatter a new
  // peer's data into deregistered slots. Under a lazy governor the dereg may
  // be deferred - an *abrupt* teardown flushes so the dead connection's pins
  // and charge are gone now, not at the next batch boundary.
  t.spares.push_back({c.vi, c.ring.addr(0)});
  c.ring.close();
  if (auto* gov = node_.governor(); abrupt && gov) (void)gov->flush();
  vi_to_conn_.unbind(c.vi);
  free_conns_.push_back(static_cast<std::uint32_t>(&c - conns_.data()));
  c.open = false;
  --open_conns_;
}

KvServer::Conn* KvServer::conn_for(via::ViId vi, std::uint64_t cookie) {
  const std::uint32_t id = vi_to_conn_.find(vi);
  if (id == ViConnTable::kNoConn) return nullptr;
  Conn& c = conns_[id];
  if (!c.open || !gen_matches(cookie, c.gen)) return nullptr;
  return &c;
}

std::uint32_t KvServer::service() {
  std::uint32_t harvested = 0;
  return service_once(harvested);
}

std::uint32_t KvServer::service_once(std::uint32_t& harvested) {
  harvest_buf_.clear();
  harvested = node_.nic().poll_cq_batch(recv_cq_, config_.completion_batch,
                                        harvest_buf_);
  if (harvested == 0) return 0;
  ++stats_.batches;
  stats_.batched_completions += harvested;

  replies_.clear();
  std::uint32_t executed = 0;
  for (const via::Nic::CqEntry& e : harvest_buf_) {
    Conn* c = conn_for(e.vi, e.desc.cookie);
    if (c == nullptr || !e.desc.done_ok()) {
      ++stats_.requests_dropped;
      continue;
    }
    const auto slot = static_cast<std::uint32_t>(e.desc.cookie & 0xFFFFFFFFu);
    const auto conn_id = static_cast<std::uint32_t>(c - conns_.data());
    if (execute(conn_id, slot, e.desc.transferred, replies_)) ++executed;
  }
  flush_replies(replies_);
  (void)harvest_sends();
  return executed;
}

void KvServer::drain() {
  for (;;) {
    std::uint32_t harvested = 0;
    (void)service_once(harvested);
    const std::uint32_t sends = harvest_sends();
    if (harvested == 0 && sends == 0) break;
  }
}

bool KvServer::execute(std::uint32_t conn_id, std::uint32_t slot,
                       std::uint32_t transferred,
                       std::vector<StagedReply>& replies) {
  Conn& c = conns_[conn_id];
  Tenant& t = tenant_of(c);
  const VirtualStopwatch sw(cluster_.clock());

  KvRequest req;
  std::array<std::byte, sizeof(KvRequest)> hdr{};
  const bool parsed =
      transferred >= sizeof(KvRequest) &&
      ok(node_.kernel().read_user(t.pid, c.ring.addr(slot), hdr)) &&
      msg::wire::load_pod(hdr, req) && req.magic == kReqMagic;
  if (!parsed) {
    // Unparseable header: no trustworthy req_id to answer to. Count it,
    // return the credit, and let the client's pipeline notice the gap.
    ++stats_.bad_requests;
    (void)c.ring.repost(slot);
    return false;
  }

  ++stats_.requests;
  KvResponse rsp;
  rsp.req_id = req.req_id;

  // Reply slot (the send CQ recycles them; sends complete synchronously).
  if (c.rsp_inflight >= config_.recv_credits) (void)harvest_sends();
  const std::uint32_t rsp_idx = c.next_rsp;
  c.next_rsp = (c.next_rsp + 1) % config_.recv_credits;
  ++c.rsp_inflight;
  const VAddr rsp_addr = rsp_slot(c, rsp_idx);

  switch (req.op) {
    case KvOp::Get:
      ++stats_.gets;
      do_get(c, req, rsp, rsp_addr);
      break;
    case KvOp::Put:
      ++stats_.puts;
      do_put(c, req, c.ring.addr(slot), rsp);
      break;
    default:
      ++stats_.bad_requests;
      rsp.status = KvStatus::BadRequest;
      break;
  }

  std::array<std::byte, sizeof(KvResponse)> out{};
  static_cast<void>(msg::wire::store_pod(std::span<std::byte>(out), rsp));
  (void)node_.kernel().write_user(t.pid, rsp_addr, out);
  const std::uint32_t inline_len =
      (!rsp.rendezvous && rsp.status == KvStatus::Ok && req.op == KvOp::Get)
          ? rsp.value_len
          : 0;
  replies.push_back(StagedReply{conn_id, c.gen, rsp_idx,
                                static_cast<std::uint32_t>(sizeof(KvResponse)) +
                                    inline_len});

  (void)c.ring.repost(slot);  // the credit returns before the reply leaves
  op_ns_.add(static_cast<std::uint64_t>(sw.elapsed()));
  return true;
}

void KvServer::do_get(Conn& c, const KvRequest& req, KvResponse& rsp,
                      VAddr rsp_addr) {
  Tenant& t = tenant_of(c);
  const auto it = t.store.find(req.key);
  if (it == t.store.end()) {
    ++stats_.not_found;
    rsp.status = KvStatus::NotFound;
    return;
  }
  const Value& v = it->second;
  rsp.value_len = v.len;
  rsp.value_crc = v.crc;

  if (v.len <= config_.inline_threshold) {
    // Eager path: arena -> reply slot copy, value rides inline.
    value_buf_.resize(v.len);
    if (!ok(node_.kernel().read_user(t.pid, v.addr, value_buf_)) ||
        fault::checksum32(value_buf_) != v.crc) {
      ++stats_.corrupt_payloads;
      rsp.status = KvStatus::Corrupt;
      return;
    }
    (void)node_.kernel().write_user(t.pid, rsp_addr + sizeof(KvResponse),
                                    value_buf_);
    stats_.inline_bytes += v.len;
    ++stats_.eager_copies;
    rsp.status = KvStatus::Ok;
    return;
  }

  // Rendezvous: one RDMA write from the arena into the client's window -
  // the value bytes never touch an eager slot.
  if (!req.window.valid() || v.len > req.value_len) {
    rsp.status = KvStatus::ValueTooLarge;
    return;
  }
  rsp.rendezvous = 1;
  MemHandle mh;
  if (!ok(t.cache->acquire(v.addr, v.len, mh))) {
    ++stats_.rendezvous_failed;
    rsp.status = KvStatus::RendezvousFailed;
    return;
  }
  const via::DescStatus st = run_rdma(c, /*write=*/true, mh, v.addr, v.len,
                                      req.window, req.window_addr);
  t.cache->release(mh);
  if (st != via::DescStatus::Done) {
    ++stats_.rendezvous_failed;
    rsp.status = KvStatus::RendezvousFailed;
    return;
  }
  ++stats_.rendezvous_ops;
  stats_.rendezvous_bytes += v.len;
  rsp.status = KvStatus::Ok;
}

void KvServer::do_put(Conn& c, const KvRequest& req, VAddr slot_addr,
                      KvResponse& rsp) {
  Tenant& t = tenant_of(c);
  rsp.value_len = req.value_len;
  if (req.value_len == 0 || req.value_len > config_.arena_bytes) {
    ++stats_.bad_requests;
    rsp.status = KvStatus::BadRequest;
    return;
  }

  if (!req.rendezvous) {
    // Eager path: the value arrived inline behind the header.
    if (sizeof(KvRequest) + req.value_len > config_.slot_size) {
      ++stats_.bad_requests;
      rsp.status = KvStatus::BadRequest;
      return;
    }
    value_buf_.resize(req.value_len);
    if (!ok(node_.kernel().read_user(t.pid, slot_addr + sizeof(KvRequest),
                                     value_buf_))) {
      ++stats_.bad_requests;
      rsp.status = KvStatus::BadRequest;
      return;
    }
    if (fault::checksum32(value_buf_) != req.value_crc) {
      ++stats_.corrupt_payloads;
      rsp.status = KvStatus::Corrupt;
      return;
    }
    // Verified before commit: an in-place overwrite can reuse the old slot.
    const VAddr dst = arena_alloc(t, req.key, req.value_len,
                                  /*allow_reuse=*/true);
    if (dst == 0) {
      ++stats_.arena_full;
      rsp.status = KvStatus::NoSpace;
      return;
    }
    (void)node_.kernel().write_user(t.pid, dst, value_buf_);
    t.store[req.key] = Value{dst, req.value_len, req.value_crc};
    stats_.inline_bytes += req.value_len;
    ++stats_.eager_copies;
    rsp.status = KvStatus::Ok;
    return;
  }

  // Rendezvous: one RDMA read from the client's window into fresh arena
  // space (never in-place - a failed transfer must not damage the old
  // value), committed only after the checksum verifies.
  if (!req.window.valid()) {
    ++stats_.bad_requests;
    rsp.status = KvStatus::BadRequest;
    return;
  }
  rsp.rendezvous = 1;
  const VAddr dst = arena_alloc(t, req.key, req.value_len,
                                /*allow_reuse=*/false);
  if (dst == 0) {
    ++stats_.arena_full;
    rsp.status = KvStatus::NoSpace;
    return;
  }
  MemHandle mh;
  if (!ok(t.cache->acquire(dst, req.value_len, mh))) {
    // PinAdmission rejection mid-transfer lands here: nothing was moved,
    // nothing stays charged - the request fails cleanly.
    ++stats_.rendezvous_failed;
    rsp.status = KvStatus::RendezvousFailed;
    return;
  }
  const via::DescStatus st = run_rdma(c, /*write=*/false, mh, dst,
                                      req.value_len, req.window,
                                      req.window_addr);
  if (st != via::DescStatus::Done) {
    t.cache->release(mh);
    ++stats_.rendezvous_failed;
    rsp.status = KvStatus::RendezvousFailed;
    return;
  }
  value_buf_.resize(req.value_len);
  if (!ok(node_.kernel().read_user(t.pid, dst, value_buf_)) ||
      fault::checksum32(value_buf_) != req.value_crc) {
    // Wire/DMA damage mid-rendezvous: detected end-to-end, not committed.
    t.cache->release(mh);
    ++stats_.corrupt_payloads;
    rsp.status = KvStatus::Corrupt;
    return;
  }
  t.cache->release(mh);  // stays cached idle for the next touch of this key
  t.store[req.key] = Value{dst, req.value_len, req.value_crc};
  ++stats_.rendezvous_ops;
  stats_.rendezvous_bytes += req.value_len;
  rsp.status = KvStatus::Ok;
}

VAddr KvServer::arena_alloc(Tenant& t, std::uint64_t key, std::uint32_t len,
                            bool allow_reuse) {
  if (allow_reuse) {
    if (const auto it = t.store.find(key);
        it != t.store.end() && it->second.len >= len)
      return it->second.addr;
  }
  if (t.arena == 0) return 0;
  const std::uint64_t off = (t.arena_off + 63) & ~63ULL;  // cacheline-align
  if (off + len > config_.arena_bytes) return 0;
  t.arena_off = off + len;
  return t.arena + off;
}

via::DescStatus KvServer::run_rdma(Conn& c, bool write,
                                   const MemHandle& local_mh, VAddr local_addr,
                                   std::uint32_t len,
                                   const MemHandle& remote_mh,
                                   VAddr remote_addr) {
  Tenant& t = tenant_of(c);
  rdma_done_.reset();
  const KStatus st =
      write ? t.vipl->rdma_write(c.vi, local_mh, local_addr, len, remote_mh,
                                 remote_addr, kRdmaBit)
            : t.vipl->rdma_read(c.vi, local_mh, local_addr, len, remote_mh,
                                remote_addr, kRdmaBit);
  if (!ok(st)) return via::DescStatus::ErrProtection;
  // The fabric transmits inline, so the leg's completion is already queued;
  // harvest until it surfaces (earlier reply completions recycle on the way).
  // Only this leg is in flight, so the first RDMA completion is its own.
  for (;;) {
    if (rdma_done_) return *rdma_done_;
    if (harvest_sends() == 0) return via::DescStatus::ErrDisconnected;
  }
}

std::uint32_t KvServer::harvest_sends() {
  send_buf_.clear();
  const std::uint32_t n =
      node_.nic().poll_cq_batch(send_cq_, config_.completion_batch, send_buf_);
  if (n) stats_.batched_completions += n;
  for (const via::Nic::CqEntry& e : send_buf_) {
    if (e.desc.cookie & kRdmaBit) {
      rdma_done_ = e.desc.status;
      if (e.desc.status != via::DescStatus::Done) ++stats_.send_errors;
      continue;
    }
    Conn* c = conn_for(e.vi, e.desc.cookie);
    if (c == nullptr) continue;
    const auto conn_id = static_cast<std::uint32_t>(c - conns_.data());
    if (c->rsp_inflight) --c->rsp_inflight;
    if (e.desc.status == via::DescStatus::ErrDisconnected) {
      // The peer vanished mid-pipeline: reclaim everything it held, now.
      ++stats_.send_errors;
      abandon(conn_id);
    } else if (e.desc.status != via::DescStatus::Done) {
      ++stats_.send_errors;
    }
  }
  return n;
}

void KvServer::flush_replies(std::vector<StagedReply>& replies) {
  // Group per connection (ascending id, each connection's replies in staging
  // order - a deterministic doorbell order), then ring one doorbell per
  // connection: a burst of replies to one client costs one MMIO write, not
  // one per reply.
  flush_order_.clear();
  for (const StagedReply& r : replies) {
    const Conn& c = conns_[r.conn];
    if (!c.open || c.gen != r.gen) {
      ++stats_.requests_dropped;  // connection died between execute and flush
      continue;
    }
    flush_order_.push_back(&r);
  }
  std::stable_sort(flush_order_.begin(), flush_order_.end(),
                   [](const StagedReply* a, const StagedReply* b) {
                     return a->conn < b->conn;
                   });
  for (std::size_t i = 0; i < flush_order_.size();) {
    const std::uint32_t conn_id = flush_order_[i]->conn;
    std::size_t end = i + 1;
    while (end < flush_order_.size() && flush_order_[end]->conn == conn_id)
      ++end;
    Conn& c = conns_[conn_id];
    Tenant& t = tenant_of(c);
    flush_posts_.clear();
    for (std::size_t k = i; k < end; ++k) {
      const StagedReply& r = *flush_order_[k];
      flush_posts_.push_back(via::Vipl::SendPost{
          c.ring.handle(), rsp_slot(c, r.slot), r.len,
          cookie_of(c.gen, r.slot)});
    }
    (void)t.vipl->post_send_batch(c.vi, flush_posts_);
    if (flush_posts_.size() > 1) stats_.batched_replies += flush_posts_.size();
    i = end;
  }
  replies.clear();
}

void KvServer::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  drain();
  for (std::uint32_t id = 0; id < conns_.size(); ++id) {
    if (conns_[id].open) {
      teardown_conn(conns_[id], /*abrupt=*/false);
      ++stats_.conns_closed;
    }
  }
  for (const auto& t : tenants_) t->cache->flush();
  if (auto* gov = node_.governor()) (void)gov->flush();
  for (const auto& t : tenants_) {
    node_.agent().release_tenant(t->pid);
    node_.kernel().exit_task(t->pid);
  }
}

}  // namespace vialock::svc
