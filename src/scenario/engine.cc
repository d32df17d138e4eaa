#include "scenario/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

#include "mp/collectives.h"
#include "obs/export.h"
#include "simkern/types.h"

namespace vialock::scenario {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Independent, well-mixed seed per actor: the same spec seed reproduces
/// every actor's stream; distinct actors never share one.
std::uint64_t actor_seed(std::uint64_t seed, std::uint64_t uid) {
  SplitMix64 sm(seed ^ (kGolden * (uid + 1)));
  return sm.next();
}

std::uint64_t page_round(std::uint64_t bytes) {
  return (bytes + simkern::kPageMask) & ~simkern::kPageMask;
}

// Collectives rank-heap layout (ScenarioSpec::validate bounds the payloads).
constexpr std::uint64_t kCollReduceScratch = 64 * 1024;
constexpr std::uint64_t kCollAlltoall = 128 * 1024;

/// Payload with a recognisable 8-byte marker up front (little-endian) and a
/// deterministic fill behind it - what the verify probes compare against.
std::vector<std::byte> marked_payload(std::uint32_t len, std::uint64_t marker) {
  std::vector<std::byte> buf(len, std::byte{static_cast<unsigned char>(marker)});
  for (std::uint32_t i = 0; i < 8 && i < len; ++i)
    buf[i] = std::byte{static_cast<unsigned char>(marker >> (8 * i))};
  return buf;
}

std::uint64_t read_marker(std::span<const std::byte> buf) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && i < buf.size(); ++i)
    v |= static_cast<std::uint64_t>(std::to_integer<unsigned char>(buf[i]))
         << (8 * i);
  return v;
}

}  // namespace

ScenarioEngine::ScenarioEngine(ScenarioSpec spec) : spec_(std::move(spec)) {}
ScenarioEngine::~ScenarioEngine() = default;

// --- build --------------------------------------------------------------------

KStatus ScenarioEngine::build() {
  assert(!built_);
  if (!spec_.validate().empty()) return KStatus::Inval;

  cluster_ = std::make_unique<via::Cluster>();
  sched_ = std::make_unique<EventScheduler>(spec_.hosts);

  if (const KStatus st = build_hosts(); !ok(st)) return st;
  if (const KStatus st = build_tenants(); !ok(st)) return st;

  if (!spec_.fault_rules.empty()) {
    fault::FaultPlan plan;
    plan.seed = spec_.seed;
    plan.rules = spec_.fault_rules;
    faults_ = std::make_unique<fault::FaultEngine>(plan, cluster_->clock());
    cluster_->inject_faults(faults_.get());
  }

  if (const KStatus st = build_transports(); !ok(st)) return st;

  if (spec_.pattern == Pattern::SkewedKv ||
      spec_.pattern == Pattern::KvService)
    build_zipf();
  if (spec_.pattern == Pattern::RpcFanout) {
    fanout_perm_.resize(spec_.servers);
    for (std::uint32_t i = 0; i < spec_.servers; ++i) fanout_perm_[i] = i;
  }
  if (spec_.pattern == Pattern::RpcFanout ||
      spec_.pattern == Pattern::SkewedKv ||
      spec_.pattern == Pattern::KvService) {
    server_ops_.assign(spec_.servers, 0);
    server_bytes_.assign(spec_.servers, 0);
  }
  if (spec_.pattern == Pattern::KvService)
    if (const KStatus st = build_kv_service(); !ok(st)) return st;

  built_ = true;
  return KStatus::Ok;
}

KStatus ScenarioEngine::build_hosts() {
  via::NodeSpec ns;
  ns.kernel.frames = spec_.host_frames;
  ns.kernel.reserved_low =
      std::min<std::uint32_t>(64, std::max<std::uint32_t>(8, spec_.host_frames / 16));
  ns.kernel.swap_slots = spec_.host_swap_slots;
  ns.nic.tpt_entries = spec_.tpt_entries;
  // A host can terminate a VI per channel direction against every peer, so
  // the default 256-entry VI table starves past ~128 hosts.
  ns.nic.max_vis = spec_.nic_vis
                       ? spec_.nic_vis
                       : std::max<std::uint32_t>(256, 2 * spec_.hosts);
  ns.policy = spec_.policy;
  cluster_->add_nodes(ns, spec_.hosts);
  return KStatus::Ok;
}

KStatus ScenarioEngine::build_tenants() {
  tenants_.resize(spec_.hosts);
  const auto guaranteed = static_cast<std::uint32_t>(
      spec_.tenants_per_host * spec_.guaranteed_fraction + 0.5);
  for (HostId h = 0; h < spec_.hosts; ++h) {
    via::Node& node = cluster_->node(h);
    if (spec_.governor) {
      pinmgr::GovernorConfig gc;
      gc.default_quota = spec_.tenant_quota_pages;
      node.enable_governor(gc);
    }
    tenants_[h].reserve(spec_.tenants_per_host);
    for (std::uint32_t t = 0; t < spec_.tenants_per_host; ++t) {
      Tenant ten;
      ten.pid = node.kernel().create_task("h" + std::to_string(h) + ".t" +
                                          std::to_string(t));
      ten.tier = t < guaranteed ? pinmgr::QosTier::Guaranteed
                                : pinmgr::QosTier::BestEffort;
      if (node.governor())
        node.governor()->set_tenant(ten.pid, spec_.tenant_quota_pages, ten.tier);
      if (spec_.churn_regs_per_tenant > 0) {
        ten.vipl = std::make_unique<via::Vipl>(node.agent(), ten.pid);
        if (const KStatus st = ten.vipl->open(); !ok(st)) return st;
        const std::uint64_t slab =
            page_round(spec_.churn_bytes) * spec_.churn_hold;
        const auto addr = node.kernel().sys_mmap_anon(
            ten.pid, slab, simkern::VmFlag::Read | simkern::VmFlag::Write);
        if (!addr) return KStatus::NoMem;
        ten.churn_pool = *addr;
      }
      tenants_[h].push_back(std::move(ten));
    }
  }
  return KStatus::Ok;
}

KStatus ScenarioEngine::build_transports() {
  std::vector<via::NodeId> ids(spec_.hosts);
  for (std::uint32_t i = 0; i < spec_.hosts; ++i) ids[i] = i;

  switch (spec_.pattern) {
    case Pattern::Collectives: {
      // Every round ends with an alltoall, which touches every pair, so
      // the links are built eagerly. Heap layout: broadcast payload and
      // allreduce vector at 0, allreduce scratch at 64 KiB, then the
      // alltoall blocks at 128 KiB followed by their snapshot (whose first
      // 16 bytes double as the barrier's token scratch).
      mp::Comm::Config cc;
      cc.heap_bytes = kCollAlltoall + 2ULL * spec_.hosts * spec_.alltoall_block;
      comm_ = std::make_unique<mp::Comm>(*cluster_, ids, cc);
      break;
    }
    case Pattern::PsAllreduce: {
      mp::Comm::Config cc;
      cc.eager_credits = 2;
      cc.heap_bytes = std::max<std::uint64_t>(
          256 * 1024,
          (spec_.hosts + 2ULL) * page_round(spec_.shard_bytes));
      cc.lazy_links = true;
      comm_ = std::make_unique<mp::Comm>(*cluster_, ids, cc);
      ps_result_reqs_.assign(spec_.hosts - 1, mp::kInvalidReq);
      break;
    }
    default:
      return KStatus::Ok;  // RPC/KV/pipeline channels come up lazily
  }
  if (const KStatus st = comm_->init(); !ok(st)) return st;
  if (spec_.governor) {
    // Rank processes are infrastructure, not QoS subjects: give them
    // headroom so bounce-buffer pins never hit tenant quotas.
    for (std::uint32_t r = 0; r < spec_.hosts; ++r)
      cluster_->node(r).governor()->set_tenant(comm_->rank_pid(r),
                                               spec_.host_frames,
                                               pinmgr::QosTier::Guaranteed);
  }
  return KStatus::Ok;
}

KStatus ScenarioEngine::build_kv_service() {
  const std::uint32_t chosts = spec_.hosts - spec_.servers;
  const auto guaranteed = static_cast<std::uint32_t>(
      spec_.tenants_per_host * spec_.guaranteed_fraction + 0.5);

  svc::KvServerConfig sc;
  sc.slot_size = spec_.value_bytes + 128;
  sc.recv_credits = spec_.pipeline_window;
  sc.completion_batch = spec_.completion_batch;
  sc.inline_threshold = spec_.value_bytes;
  // Rendezvous PUTs always take fresh arena space (commit-after-verify), so
  // size the arena for the expected large-PUT volume plus one inline-sized
  // slab per key, with 2x headroom for skewed placement.
  const std::uint64_t total_ops = static_cast<std::uint64_t>(chosts) *
                                  spec_.connections_per_client *
                                  spec_.ops_per_tenant;
  const std::uint64_t large_puts = static_cast<std::uint64_t>(
      static_cast<double>(total_ops) * spec_.put_fraction *
          spec_.large_fraction +
      1.0);
  const std::uint64_t large_slab = (spec_.large_value_bytes + 63ULL) & ~63ULL;
  const std::uint64_t inline_slab = static_cast<std::uint64_t>(spec_.keys) *
                                    ((spec_.value_bytes + 63ULL) & ~63ULL);
  sc.arena_bytes = std::clamp<std::uint64_t>(
      2 * (large_puts / std::max(1u, spec_.servers) * large_slab +
           inline_slab),
      1ULL << 20, 256ULL << 20);

  kv_servers_.reserve(spec_.servers);
  for (std::uint32_t s = 0; s < spec_.servers; ++s) {
    auto srv = std::make_unique<svc::KvServer>(*cluster_, s, sc);
    if (const KStatus st = srv->init(); !ok(st)) return st;
    for (std::uint32_t t = 0; t < spec_.tenants_per_host; ++t) {
      svc::KvServer::TenantConfig tc;
      tc.name = "s" + std::to_string(s) + ".t" + std::to_string(t);
      tc.quota_pages = spec_.tenant_quota_pages;
      tc.tier = t < guaranteed ? pinmgr::QosTier::Guaranteed
                               : pinmgr::QosTier::BestEffort;
      (void)srv->add_tenant(tc);
    }
    kv_servers_.push_back(std::move(srv));
  }

  svc::KvClientConfig cc;
  cc.slot_size = sc.slot_size;
  cc.window = spec_.pipeline_window;
  cc.value_window_bytes = spec_.large_value_bytes;
  cc.inline_threshold = spec_.value_bytes;
  cc.completion_batch = spec_.completion_batch;

  kv_clients_.reserve(chosts);
  kv_actors_.reserve(chosts);
  for (std::uint32_t i = 0; i < chosts; ++i) {
    const HostId h = spec_.servers + i;
    auto cli = std::make_unique<svc::KvClient>(*cluster_, h,
                                               "kvc.h" + std::to_string(h), cc);
    if (const KStatus st = cli->open(); !ok(st)) return st;

    KvActor a;
    a.host = h;
    a.client = i;
    // Offset the uid space so kv actors never share a churner's rng stream.
    a.rng = Rng(actor_seed(spec_.seed, (1ULL << 32) + h));
    a.ops_remaining = spec_.connections_per_client * spec_.ops_per_tenant;
    a.churn_remaining = spec_.conn_churn_per_client;
    a.churn_every = a.churn_remaining
                        ? std::max<std::uint32_t>(
                              1, a.ops_remaining / (a.churn_remaining + 1))
                        : 0;
    a.conns.resize(spec_.connections_per_client);
    for (std::uint32_t c = 0; c < spec_.connections_per_client; ++c) {
      KvConnRef& ref = a.conns[c];
      ref.server = c % spec_.servers;
      ref.tenant = (c / spec_.servers) % spec_.tenants_per_host;
      std::uint32_t conn = 0;
      if (ok(cli->connect(*kv_servers_[ref.server], ref.tenant, conn))) {
        ref.conn = conn;
        ref.open = true;
      }  // shed slots stay closed; the actor retries during the run
    }
    kv_clients_.push_back(std::move(cli));
    kv_actors_.push_back(std::move(a));
  }

  std::uint64_t open = 0;
  for (const auto& s : kv_servers_) open += s->open_conns();
  kvsvc_stats_.peak_open_conns = open;
  return KStatus::Ok;
}

void ScenarioEngine::build_zipf() {
  zipf_cdf_.resize(spec_.keys);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < spec_.keys; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), spec_.skew);
    zipf_cdf_[i] = sum;
  }
  for (auto& v : zipf_cdf_) v /= sum;
}

// --- channels ----------------------------------------------------------------

std::uint32_t ScenarioEngine::max_payload() const {
  switch (spec_.pattern) {
    case Pattern::RpcFanout:
      return std::max(spec_.request_bytes, spec_.response_bytes);
    case Pattern::SkewedKv:
      return std::max({spec_.request_bytes, spec_.response_bytes,
                       spec_.value_bytes});
    case Pattern::Pipeline:
      return spec_.record_bytes;
    default:
      return 4096;
  }
}

msg::Channel::Config ScenarioEngine::channel_config(HostId from,
                                                    HostId to) const {
  msg::Channel::Config cfg;
  // Slots sized to the workload, not the 8 KB default: at 256 hosts a server
  // carries hundreds of channel sides and every slot page is pinned memory.
  // Only payloads below eager_threshold ever ride the eager path (anything
  // larger goes rendezvous), so size the ring for the largest eager-eligible
  // payload, not for max_payload().
  std::uint32_t eager_max = 0;
  for (const std::uint32_t p :
       {spec_.request_bytes, spec_.response_bytes, spec_.value_bytes,
        spec_.record_bytes, spec_.payload_bytes})
    if (p <= max_payload() && p < cfg.eager_threshold)
      eager_max = std::max(eager_max, p);
  cfg.eager_slot_size = ((eager_max + 128 + 511) / 512) * 512;
  cfg.eager_credits = 2;
  cfg.user_heap_bytes = spec_.channel_heap_bytes;
  const std::uint32_t t = spec_.tenants_per_host;
  cfg.sender_pid = tenants_[from][to % t].pid;
  cfg.receiver_pid = tenants_[to][from % t].pid;
  cfg.reliability.enabled = spec_.reliable;
  return cfg;
}

msg::Channel* ScenarioEngine::channel(HostId from, HostId to) {
  if (channels_.empty()) channels_.resize(1ULL * spec_.hosts * spec_.hosts);
  auto& slot = channels_[std::size_t{from} * spec_.hosts + to];
  if (slot) return slot.get();
  auto ch = std::make_unique<msg::Channel>(*cluster_, from, to,
                                           channel_config(from, to));
  if (!ok(ch->init())) return nullptr;  // slot stays empty: next use retries
  // Stage the sender-side marker payload once; every transfer re-sends it,
  // so the receiver heap always ends up holding `from`'s marker.
  const std::uint64_t marker = kGolden * (from + 1) ^ spec_.seed;
  const auto buf = marked_payload(max_payload(), marker);
  (void)ch->stage(0, buf);
  ++counters_.channels_created;
  slot = std::move(ch);
  return slot.get();
}

bool ScenarioEngine::do_transfer(msg::Channel* ch, std::uint32_t len,
                                 std::uint64_t src_off, std::uint64_t dst_off) {
  ++counters_.transfers_attempted;
  if (ch == nullptr) {
    ++counters_.transfers_failed;
    return false;
  }
  if (ok(ch->transfer_auto(src_off, dst_off, len))) {
    ++counters_.transfers_ok;
    return true;
  }
  ++counters_.transfers_failed;
  return false;
}

// --- actor seeding -----------------------------------------------------------

void ScenarioEngine::seed_actors() {
  std::uint64_t uid = 0;

  switch (spec_.pattern) {
    case Pattern::RpcFanout:
    case Pattern::SkewedKv:
      for (HostId h = first_client_host(); h < spec_.hosts; ++h)
        for (std::uint32_t t = 0; t < spec_.tenants_per_host; ++t)
          clients_.push_back({h, t, Rng(actor_seed(spec_.seed, uid++)),
                              spec_.ops_per_tenant});
      break;
    case Pattern::Pipeline:
      for (std::uint32_t t = 0; t < spec_.tenants_per_host; ++t)
        clients_.push_back({0, t, Rng(actor_seed(spec_.seed, uid++)),
                            spec_.ops_per_tenant});
      break;
    case Pattern::PsAllreduce:
    case Pattern::Collectives:
      break;  // driven by round events, not per-tenant actors
    case Pattern::KvService:
      break;  // kv actors were materialised by build_kv_service()
  }

  if (spec_.churn_regs_per_tenant > 0)
    for (HostId h = 0; h < spec_.hosts; ++h)
      for (std::uint32_t t = 0; t < spec_.tenants_per_host; ++t)
        churners_.push_back({h, t, Rng(actor_seed(spec_.seed, uid++)),
                             spec_.churn_regs_per_tenant,
                             {},
                             0});

  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ClientActor& a = clients_[i];
    const Nanos start = a.rng.below(spec_.think_ns + 1);
    switch (spec_.pattern) {
      case Pattern::RpcFanout:
        sched_->post(start, a.host, [this, i] { run_rpc_op(i); });
        break;
      case Pattern::SkewedKv:
        sched_->post(start, a.host, [this, i] { run_kv_op(i); });
        break;
      case Pattern::Pipeline:
        sched_->post(start, a.host, [this, i] { run_pipeline_emit(i); });
        break;
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < kv_actors_.size(); ++i) {
    KvActor& a = kv_actors_[i];
    const Nanos start = a.rng.below(spec_.think_ns + 1);
    sched_->post(start, a.host, [this, i] { run_kvsvc_op(i); });
  }
  if (spec_.pattern == Pattern::PsAllreduce && spec_.rounds > 0)
    sched_->post(0, 0, [this] { run_ps_begin_round(); });
  if (spec_.pattern == Pattern::Collectives && spec_.rounds > 0)
    sched_->post(0, 0, [this] { run_collectives_round(); });

  for (std::size_t i = 0; i < churners_.size(); ++i) {
    ChurnActor& c = churners_[i];
    const Nanos start = 1 + c.rng.below(spec_.think_ns + 1);
    sched_->post(start, c.host, [this, i] { run_churn_op(i); });
  }
}

// --- RPC fan-out -------------------------------------------------------------

void ScenarioEngine::pick_fanout_targets(Rng& rng, std::uint32_t* out,
                                         std::uint32_t k) {
  // Partial Fisher-Yates over the persistent permutation: a uniform
  // k-subset of servers per request in O(k). The permutation is shared
  // across clients (the report bytes depend on that).
  const auto n = static_cast<std::uint32_t>(fanout_perm_.size());
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::uint32_t>(rng.below(n - i));
    std::swap(fanout_perm_[i], fanout_perm_[j]);
    out[i] = fanout_perm_[i];
  }
}

void ScenarioEngine::run_rpc_op(std::size_t actor) {
  ClientActor& a = clients_[actor];
  const Nanos issued = sched_->now();

  std::uint32_t targets[64];
  const std::uint32_t k = std::min<std::uint32_t>(spec_.fanout, 64);
  pick_fanout_targets(a.rng, targets, k);
  const VirtualStopwatch sw(cluster_->clock());
  Nanos done = issued;
  for (std::uint32_t i = 0; i < k; ++i) {
    const HostId srv = targets[i];
    const bool sent = do_transfer(channel(a.host, srv), spec_.request_bytes);
    const bool replied =
        do_transfer(channel(srv, a.host), spec_.response_bytes);
    ++server_ops_[srv];
    server_bytes_[srv] += spec_.request_bytes + spec_.response_bytes;
    if (sent && replied) ++counters_.verify_ok;  // round trip completed
  }
  ++counters_.rpcs;
  done = sched_->charge_host(a.host, issued, sw.elapsed());
  for (std::uint32_t i = 0; i < k; ++i) sched_->hold_host(targets[i], done);
  record_latency(done - issued);
  if (--a.remaining > 0)
    sched_->post(done + spec_.think_ns, a.host,
                 [this, actor] { run_rpc_op(actor); });
}

// --- skewed KV ---------------------------------------------------------------

std::uint32_t ScenarioEngine::zipf_sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  if (it == zipf_cdf_.end()) return spec_.keys - 1;
  return static_cast<std::uint32_t>(it - zipf_cdf_.begin());
}

void ScenarioEngine::run_kv_op(std::size_t actor) {
  ClientActor& a = clients_[actor];
  const Nanos issued = sched_->now();

  const bool put = a.rng.chance(spec_.put_fraction);
  const std::uint32_t key = zipf_sample(a.rng);
  const HostId srv = key % spec_.servers;
  const VirtualStopwatch sw(cluster_->clock());
  msg::Channel* req = channel(a.host, srv);
  msg::Channel* resp = channel(srv, a.host);

  bool complete;
  if (put) {
    complete = do_transfer(req, spec_.value_bytes);
    complete &= do_transfer(resp, spec_.response_bytes);
    ++counters_.kv_puts;
  } else {
    complete = do_transfer(req, spec_.request_bytes);
    complete &= do_transfer(resp, spec_.value_bytes);
    ++counters_.kv_gets;
    // Spot-check every 64th completed GET: the payload that landed in the
    // client heap must carry the server's marker.
    if (complete && counters_.kv_gets % 64 == 0) {
      std::array<std::byte, 8> got{};
      if (ok(resp->fetch(0, got))) {
        const std::uint64_t want = kGolden * (srv + 1) ^ spec_.seed;
        if (read_marker(got) == want)
          ++counters_.verify_ok;
        else
          ++counters_.verify_failed;
      }
    }
  }
  ++server_ops_[srv];
  server_bytes_[srv] += put ? spec_.value_bytes + spec_.response_bytes
                            : spec_.request_bytes + spec_.value_bytes;

  const Nanos done = sched_->charge_host(a.host, issued, sw.elapsed());
  sched_->hold_host(srv, done);
  record_latency(done - issued);
  if (--a.remaining > 0)
    sched_->post(done + spec_.think_ns, a.host,
                 [this, actor] { run_kv_op(actor); });
}

// --- streaming pipeline ------------------------------------------------------

void ScenarioEngine::run_pipeline_emit(std::size_t actor) {
  ClientActor& a = clients_[actor];
  const Nanos issued = sched_->now();
  const std::uint64_t record = page_round(spec_.record_bytes);
  const std::uint64_t slots = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(64, spec_.channel_heap_bytes / record));
  // Backpressure: at most `slots` records in flight end to end. With that
  // credit, record seq-slots has retired before seq is emitted, so the slot
  // it shared on every channel has been drained - restaging cannot corrupt
  // a record still traversing the pipe.
  if (pipeline_seq_ - pipeline_retired_ >= slots) {
    sched_->post(issued + std::max<Nanos>(spec_.think_ns, 100), a.host,
                 [this, actor] { run_pipeline_emit(actor); });
    return;
  }
  const VirtualStopwatch sw(cluster_->clock());

  const std::uint64_t seq = pipeline_seq_++;
  const std::uint64_t slot_off = (seq % slots) * record;
  const std::uint64_t marker = actor_seed(spec_.seed, kGolden ^ seq);

  msg::Channel* out = channel(0, 1);
  bool sent = false;
  if (out != nullptr) {
    const auto buf = marked_payload(spec_.record_bytes, marker);
    (void)out->stage(slot_off, buf);
    sent = do_transfer(out, spec_.record_bytes, slot_off, slot_off);
  } else {
    sent = do_transfer(nullptr, spec_.record_bytes);
  }

  const Nanos done = sched_->charge_host(a.host, issued, sw.elapsed());
  sched_->hold_host(1, done);
  if (sent)
    sched_->post(done, 1, [this, slot_off, marker] {
      run_pipeline_hop(1, slot_off, marker);
    });
  else
    ++pipeline_retired_;  // dropped on the first wire: credit comes back
  if (--a.remaining > 0)
    sched_->post(done + spec_.think_ns, a.host,
                 [this, actor] { run_pipeline_emit(actor); });
}

void ScenarioEngine::run_pipeline_hop(HostId host, std::uint64_t slot_off,
                                      std::uint64_t marker) {
  const Nanos issued = sched_->now();
  const VirtualStopwatch sw(cluster_->clock());

  msg::Channel* in = channel(host - 1, host);
  if (host == spec_.hosts - 1) {
    std::array<std::byte, 8> got{};
    if (in != nullptr && ok(in->fetch(slot_off, got))) {
      if (read_marker(got) == marker)
        ++counters_.verify_ok;
      else
        ++counters_.verify_failed;
    }
    ++counters_.records_delivered;
    ++pipeline_retired_;
    const Nanos done = sched_->charge_host(host, issued, sw.elapsed());
    record_latency(done - issued);
    return;
  }

  std::vector<std::byte> buf(spec_.record_bytes);
  bool forwarded = false;
  if (in != nullptr && ok(in->fetch(slot_off, buf))) {
    msg::Channel* out = channel(host, host + 1);
    if (out != nullptr) {
      (void)out->stage(slot_off, buf);
      forwarded = do_transfer(out, spec_.record_bytes, slot_off, slot_off);
    } else {
      forwarded = do_transfer(nullptr, spec_.record_bytes);
    }
  }
  const Nanos done = sched_->charge_host(host, issued, sw.elapsed());
  sched_->hold_host(host + 1, done);
  if (forwarded)
    sched_->post(done, host + 1, [this, host, slot_off, marker] {
      run_pipeline_hop(host + 1, slot_off, marker);
    });
  else
    ++pipeline_retired_;  // record died mid-pipe: release its slot credit
}

// --- parameter-server allreduce ----------------------------------------------

void ScenarioEngine::run_ps_begin_round() {
  const Nanos issued = sched_->now();
  const VirtualStopwatch sw(cluster_->clock());
  const std::uint32_t workers = spec_.hosts - 1;
  const std::uint64_t region = page_round(spec_.shard_bytes);

  ps_recv_reqs_.assign(workers, mp::kInvalidReq);
  for (std::uint32_t w = 1; w <= workers; ++w)
    ps_recv_reqs_[w - 1] =
        comm_->irecv(0, static_cast<std::int32_t>(w),
                     static_cast<std::int32_t>(2 * ps_round_), w * region,
                     spec_.shard_bytes);

  const Nanos done = sched_->charge_host(0, issued, sw.elapsed());
  for (std::uint32_t w = 1; w <= workers; ++w)
    sched_->post(done, w, [this, w] { run_ps_push(w); });
}

void ScenarioEngine::run_ps_push(std::uint32_t worker) {
  const Nanos issued = sched_->now();
  const VirtualStopwatch sw(cluster_->clock());

  // Round-dependent gradient: u64s all equal to (round+1)*worker, so the
  // reduced sum is predictable and the result broadcast verifiable.
  const std::uint64_t val =
      static_cast<std::uint64_t>(ps_round_ + 1) * worker;
  std::vector<std::byte> shard(spec_.shard_bytes);
  for (std::size_t i = 0; i + 8 <= shard.size(); i += 8)
    std::memcpy(&shard[i], &val, 8);
  (void)comm_->stage(worker, 0, shard);

  ++counters_.transfers_attempted;
  const mp::ReqId req =
      comm_->isend(worker, 0, static_cast<std::int32_t>(2 * ps_round_), 0,
                   spec_.shard_bytes);
  if (req != mp::kInvalidReq && comm_->wait(req))
    ++counters_.transfers_ok;
  else
    ++counters_.transfers_failed;

  // Pre-post the result receive before the server can send it.
  ps_result_reqs_[worker - 1] =
      comm_->irecv(worker, 0, static_cast<std::int32_t>(2 * ps_round_ + 1), 0,
                   spec_.shard_bytes);

  const Nanos done = sched_->charge_host(worker, issued, sw.elapsed());
  sched_->hold_host(0, done);
  record_latency(done - issued);
  sched_->post(done, 0, [this, worker] { run_ps_arrival(worker); });
}

void ScenarioEngine::run_ps_arrival(std::uint32_t worker) {
  const Nanos issued = sched_->now();
  const VirtualStopwatch sw(cluster_->clock());
  const std::uint32_t workers = spec_.hosts - 1;
  const std::uint64_t region = page_round(spec_.shard_bytes);
  const std::uint32_t count = spec_.shard_bytes / 8;

  if (ps_recv_reqs_[worker - 1] != mp::kInvalidReq)
    (void)comm_->wait(ps_recv_reqs_[worker - 1]);

  if (++ps_arrived_ == workers) {
    // Reduce: fold every worker region, verifying each shard's fill.
    std::vector<std::uint64_t> acc(count, 0);
    std::vector<std::byte> raw(spec_.shard_bytes);
    for (std::uint32_t w = 1; w <= workers; ++w) {
      if (!ok(comm_->fetch(0, w * region, raw))) continue;
      const std::uint64_t want =
          static_cast<std::uint64_t>(ps_round_ + 1) * w;
      std::uint64_t first = 0;
      std::memcpy(&first, raw.data(), 8);
      if (first == want)
        ++counters_.verify_ok;
      else
        ++counters_.verify_failed;
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t v = 0;
        std::memcpy(&v, &raw[i * 8], 8);
        acc[i] += v;
      }
    }
    ps_expected_sum_ = 0;
    for (std::uint32_t w = 1; w <= workers; ++w)
      ps_expected_sum_ += static_cast<std::uint64_t>(ps_round_ + 1) * w;
    std::vector<std::byte> result(spec_.shard_bytes);
    for (std::uint32_t i = 0; i < count; ++i)
      std::memcpy(&result[i * 8], &acc[i], 8);
    (void)comm_->stage(0, 0, result);

    for (std::uint32_t w = 1; w <= workers; ++w) {
      ++counters_.transfers_attempted;
      const mp::ReqId req = comm_->isend(
          0, w, static_cast<std::int32_t>(2 * ps_round_ + 1), 0,
          spec_.shard_bytes);
      if (req != mp::kInvalidReq && comm_->wait(req))
        ++counters_.transfers_ok;
      else
        ++counters_.transfers_failed;
    }

    ++counters_.allreduce_rounds;
    ps_arrived_ = 0;
    ++ps_round_;
    const Nanos done = sched_->charge_host(0, issued, sw.elapsed());
    for (std::uint32_t w = 1; w <= workers; ++w) {
      sched_->hold_host(w, done);
      sched_->post(done, w, [this, w] { run_ps_worker_check(w); });
    }
    if (ps_round_ < spec_.rounds)
      sched_->post(done, 0, [this] { run_ps_begin_round(); });
  } else {
    sched_->charge_host(0, issued, sw.elapsed());
  }
}

void ScenarioEngine::run_ps_worker_check(std::uint32_t worker) {
  const Nanos issued = sched_->now();
  const VirtualStopwatch sw(cluster_->clock());
  if (ps_result_reqs_[worker - 1] != mp::kInvalidReq &&
      comm_->wait(ps_result_reqs_[worker - 1])) {
    std::array<std::byte, 8> got{};
    if (ok(comm_->fetch(worker, 0, got))) {
      std::uint64_t v = 0;
      std::memcpy(&v, got.data(), 8);
      if (v == ps_expected_sum_)
        ++counters_.verify_ok;
      else
        ++counters_.verify_failed;
    }
  }
  sched_->charge_host(worker, issued, sw.elapsed());
}

// --- collectives (E12) -------------------------------------------------------

void ScenarioEngine::run_collectives_round() {
  const Nanos issued = sched_->now();
  const VirtualStopwatch total(cluster_->clock());
  const std::uint64_t scratch =
      kCollAlltoall + std::uint64_t{spec_.hosts} * spec_.alltoall_block;

  if (collective_round_ == 0) {
    // Stage the root payload and run one untimed warmup barrier before
    // the timed sequence.
    const std::vector<std::byte> payload(spec_.payload_bytes, std::byte{0xAB});
    (void)comm_->stage(0, 0, payload);
    (void)mp::barrier(*comm_, scratch);
  }

  {
    const VirtualStopwatch sw(cluster_->clock());
    const KStatus st = mp::barrier(*comm_, scratch);
    report_.barrier_ns += sw.elapsed();
    ++counters_.transfers_attempted;
    ok(st) ? ++counters_.transfers_ok : ++counters_.transfers_failed;
  }
  {
    const mp::CommStats& cs = comm_->stats();
    const std::uint64_t before = cs.eager_sends + cs.rendezvous_sends;
    const VirtualStopwatch sw(cluster_->clock());
    const KStatus st = mp::broadcast(*comm_, 0, 0, spec_.payload_bytes);
    report_.broadcast_ns += sw.elapsed();
    report_.bcast_msgs += cs.eager_sends + cs.rendezvous_sends - before;
    ++counters_.transfers_attempted;
    ok(st) ? ++counters_.transfers_ok : ++counters_.transfers_failed;
  }
  {
    const VirtualStopwatch sw(cluster_->clock());
    const KStatus st = mp::allreduce_sum(*comm_, 0, spec_.allreduce_count,
                                         kCollReduceScratch);
    report_.allreduce_ns += sw.elapsed();
    ++counters_.transfers_attempted;
    ok(st) ? ++counters_.transfers_ok : ++counters_.transfers_failed;
  }
  {
    const VirtualStopwatch sw(cluster_->clock());
    const KStatus st = mp::alltoall(*comm_, kCollAlltoall,
                                    spec_.alltoall_block, scratch);
    report_.alltoall_ns += sw.elapsed();
    ++counters_.transfers_attempted;
    ok(st) ? ++counters_.transfers_ok : ++counters_.transfers_failed;
  }
  // bytes_moved comes from the communicator's own count at teardown.
  const Nanos done = sched_->charge_host(0, issued, total.elapsed());
  for (HostId h = 1; h < spec_.hosts; ++h) sched_->hold_host(h, done);
  record_latency(done - issued);
  if (++collective_round_ < spec_.rounds)
    sched_->post(done, 0, [this] { run_collectives_round(); });
}

// --- kv-server service tier --------------------------------------------------

bool ScenarioEngine::kvsvc_reconnect(KvActor& a, KvConnRef& ref) {
  std::uint32_t conn = 0;
  if (!ok(kv_clients_[a.client]->connect(*kv_servers_[ref.server], ref.tenant,
                                         conn))) {
    ++kvsvc_stats_.reconnect_failed;
    return false;
  }
  ref.conn = conn;
  ref.open = true;
  return true;
}

void ScenarioEngine::kvsvc_account(const svc::KvResult& r,
                                   std::uint32_t server) {
  ++counters_.transfers_attempted;
  const bool served = r.data_ok && (r.status == svc::KvStatus::Ok ||
                                    r.status == svc::KvStatus::NotFound);
  served ? ++counters_.transfers_ok : ++counters_.transfers_failed;
  if (r.op == svc::KvOp::Get && r.status == svc::KvStatus::Ok)
    r.data_ok ? ++counters_.verify_ok : ++counters_.verify_failed;
  else if (!r.data_ok)
    ++counters_.verify_failed;
  ++server_ops_[server];
  server_bytes_[server] += r.value_len;
}

void ScenarioEngine::run_kvsvc_churn(KvActor& a) {
  --a.churn_remaining;
  a.ops_since_churn = 0;
  svc::KvClient& cli = *kv_clients_[a.client];
  KvConnRef* ref = nullptr;
  for (std::uint32_t tries = 0;
       tries < a.conns.size() && ref == nullptr; ++tries) {
    KvConnRef& r = a.conns[a.next_conn++ % a.conns.size()];
    if (r.open) ref = &r;
  }
  if (ref == nullptr) return;  // nothing connected to churn
  svc::KvServer& srv = *kv_servers_[ref->server];

  if (a.rng.chance(spec_.churn_abandon_fraction)) {
    // Abrupt: leave requests in flight so the *server* discovers the loss -
    // its replies bounce with ErrDisconnected and it must reclaim the
    // connection's pins and governor charge on its own. These requests are
    // lost by design and never enter the transfer accounting.
    for (std::uint32_t i = 0;
         i < spec_.pipeline_window && cli.can_issue(ref->conn); ++i) {
      std::uint64_t req_id = 0;
      if (!ok(cli.get(ref->conn, zipf_sample(a.rng), req_id))) break;
    }
    (void)cli.flush(ref->conn);
    (void)cli.abandon(ref->conn);
    while (srv.service() != 0) {
    }
    srv.drain();
  } else {
    const std::uint32_t sc = cli.server_conn(ref->conn);
    (void)cli.close(ref->conn);
    (void)srv.close(sc);
  }
  ref->open = false;
  (void)kvsvc_reconnect(a, *ref);  // shed slots get retried by later events
}

void ScenarioEngine::run_kvsvc_op(std::size_t actor) {
  KvActor& a = kv_actors_[actor];
  const Nanos issued = sched_->now();
  const VirtualStopwatch sw(cluster_->clock());
  svc::KvClient& cli = *kv_clients_[a.client];

  std::uint32_t touched_server = UINT32_MAX;
  std::vector<svc::KvResult> results;  ///< per-event harvest scratch

  if (a.churn_remaining > 0 && a.ops_since_churn >= a.churn_every) {
    run_kvsvc_churn(a);
  } else if (a.ops_remaining > 0) {
    // Next usable connection, round-robin; closed (shed) slots get a
    // reconnect attempt on the way past.
    KvConnRef* ref = nullptr;
    for (std::uint32_t tries = 0;
         tries < a.conns.size() && ref == nullptr; ++tries) {
      KvConnRef& r = a.conns[a.next_conn++ % a.conns.size()];
      if (!r.open && !kvsvc_reconnect(a, r)) continue;
      ref = &r;
    }
    if (ref == nullptr) {
      // Every slot shed and the server still refuses: allow a few retries,
      // then drop the remaining (never-issued) ops so the run terminates.
      if (++a.stalls > 8) a.ops_remaining = 0;
    } else {
      a.stalls = 0;
      touched_server = ref->server;
      svc::KvServer& srv = *kv_servers_[ref->server];
      // Fill the connection's pipeline window in one burst, flush the burst
      // behind one doorbell, let the server run batched service cycles, then
      // harvest the responses.
      const std::uint32_t burst =
          std::min(spec_.pipeline_window, a.ops_remaining);
      for (std::uint32_t i = 0; i < burst && cli.can_issue(ref->conn); ++i) {
        const bool put = a.rng.chance(spec_.put_fraction);
        const std::uint64_t key = zipf_sample(a.rng);
        const bool large = a.rng.chance(spec_.large_fraction);
        std::uint64_t req_id = 0;
        KStatus st;
        if (put) {
          const std::uint32_t len =
              large ? spec_.large_value_bytes : spec_.value_bytes;
          std::vector<std::byte> value(len);
          svc::KvClient::fill_value(value, key, spec_.seed);
          st = cli.put(ref->conn, key, value, req_id);
        } else {
          st = cli.get(ref->conn, key, req_id);
        }
        if (!ok(st)) break;
        put ? ++counters_.kv_puts : ++counters_.kv_gets;
        a.issue_ns[req_id] = issued;
        --a.ops_remaining;
        ++a.ops_since_churn;
      }
      (void)cli.flush(ref->conn);
      while (srv.service() != 0) {
      }
      while (cli.harvest(results) != 0) {
      }
    }
  }

  const Nanos done = sched_->charge_host(a.host, issued, sw.elapsed());
  if (touched_server != UINT32_MAX) sched_->hold_host(touched_server, done);
  for (const svc::KvResult& r : results) {
    kvsvc_account(r, touched_server == UINT32_MAX ? 0 : touched_server);
    const auto it = a.issue_ns.find(r.req_id);
    const Nanos t0 = it == a.issue_ns.end() ? issued : it->second;
    if (it != a.issue_ns.end()) a.issue_ns.erase(it);
    record_latency(done - t0);
  }
  std::uint64_t open = 0;
  for (const auto& s : kv_servers_) open += s->open_conns();
  kvsvc_stats_.peak_open_conns = std::max(kvsvc_stats_.peak_open_conns, open);
  if (a.ops_remaining > 0 || a.churn_remaining > 0)
    sched_->post(done + spec_.think_ns, a.host,
                 [this, actor] { run_kvsvc_op(actor); });
}

// --- registration churn ------------------------------------------------------

void ScenarioEngine::run_churn_op(std::size_t actor) {
  ChurnActor& c = churners_[actor];
  Tenant& t = tenants_[c.host][c.tenant];
  const Nanos issued = sched_->now();
  const VirtualStopwatch sw(cluster_->clock());

  const std::uint64_t slab_slot = page_round(spec_.churn_bytes);
  if (c.held.size() >= spec_.churn_hold) {
    if (ok(t.vipl->deregister_mem(c.held.front())))
      ++counters_.deregistrations;
    c.held.erase(c.held.begin());
  } else {
    const auto max_pages =
        static_cast<std::uint32_t>(slab_slot / simkern::kPageSize);
    const auto pages = 1 + static_cast<std::uint32_t>(c.rng.below(max_pages));
    const simkern::VAddr addr =
        t.churn_pool + (c.next_slot % spec_.churn_hold) * slab_slot;
    ++c.next_slot;
    via::MemHandle mh;
    if (ok(t.vipl->register_mem(addr, pages * simkern::kPageSize, mh))) {
      c.held.push_back(mh);
      ++counters_.registrations_ok;
    } else {
      ++counters_.registrations_failed;
    }
    --c.remaining;
  }

  const Nanos done = sched_->charge_host(c.host, issued, sw.elapsed());
  if (c.remaining > 0)
    sched_->post(done + spec_.think_ns, c.host,
                 [this, actor] { run_churn_op(actor); });
}

// --- latency -----------------------------------------------------------------

void ScenarioEngine::record_latency(Nanos ns) {
  const auto bucket = static_cast<std::size_t>(std::bit_width(ns));
  ++lat_hist_[std::min<std::size_t>(bucket, lat_hist_.size() - 1)];
  ++lat_samples_;
}

Nanos ScenarioEngine::percentile(double q) const {
  if (lat_samples_ == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(lat_samples_));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < lat_hist_.size(); ++b) {
    cum += lat_hist_[b];
    if (cum > target) return b == 0 ? 0 : (Nanos{1} << b) - 1;
  }
  return Nanos{1} << (lat_hist_.size() - 1);
}

// --- run / teardown / audit --------------------------------------------------

KStatus ScenarioEngine::run() {
  assert(built_ && !ran_);
  ran_ = true;
  setup_sampler();
  seed_actors();
  sched_->run();
  report_.makespan_ns = sched_->now();
  if (sampler_) {
    // Close the timeline with one sample at the drained clock, so short
    // runs (makespan < interval) still export the end-of-run view. Skip it
    // when the last interval tick already landed exactly there.
    const Nanos end = sched_->now();
    if (sampler_->samples().empty() || sampler_->samples().back().when != end)
      sampler_->sample(end);
  }
  teardown();
  audit();
  fill_report();
  return KStatus::Ok;
}

void ScenarioEngine::setup_sampler() {
  const bool wanted = spec_.sample_interval > 0 || !spec_.slo_rules.empty() ||
                      timeline_requested_;
  if (!wanted) return;

  obs::Sampler::Config cfg;
  if (spec_.sample_interval > 0) cfg.interval = spec_.sample_interval;
  cfg.trace_metrics = trace_metrics_;
  sampler_ = std::make_unique<obs::Sampler>(std::move(cfg));
  for (HostId h = 0; h < spec_.hosts; ++h)
    sampler_->add_registry(&cluster_->node(h).kernel().metrics());

  for (const SloRule& r : spec_.slo_rules) {
    obs::SloSpec s;
    s.metric = r.metric;
    s.op = r.op == "lt"   ? obs::SloOp::Lt
           : r.op == "gt" ? obs::SloOp::Gt
           : r.op == "ge" ? obs::SloOp::Ge
                          : obs::SloOp::Le;
    s.threshold = r.threshold;
    s.window = r.window;
    sampler_->add_slo(std::move(s));
  }
  if (!spec_.slo_rules.empty()) {
    // Arm host 0's flight recorder so the first violated tick captures a
    // postmortem of the still-running cluster - before teardown destroys
    // the state and before audit() flips invariants_ok.
    simkern::Kernel& k0 = cluster_->node(0).kernel();
    k0.flight().set_seed(spec_.seed);
    k0.flight().set_sink(
        [this](std::string_view reason, const std::string& json) {
          flight_dumps_.emplace_back(std::string(reason), json);
        });
    sampler_->set_slo_hook(
        [this](const obs::SloSpec& rule, const obs::SloFiring&) {
          cluster_->node(0).kernel().flight_dump("slo:" + rule.metric);
        });
  }

  // The scheduler fires interval ticks between events (scheduler.h).
  sched_->set_tick(sampler_->interval(), [this](Nanos t) { sampler_->sample(t); });
}

void ScenarioEngine::teardown() {
  // Disarm fault injection first: teardown must be able to release
  // everything, and injected failures here would fake invariant violations.
  if (faults_) cluster_->inject_faults(nullptr);

  for (const auto& ch : channels_)
    if (ch) counters_.bytes_moved += ch->stats().bytes_moved;
  if (comm_) counters_.bytes_moved += comm_->stats().bytes;

  // kv-server pattern: capture the svc tier's accounting before destroying
  // it. Clients go first (their disconnects are ordinary peer departures),
  // then each server's shutdown must leave its node audit-clean.
  for (const auto& c : kv_clients_) {
    const svc::KvClientStats& cs = c->stats();
    kvsvc_stats_.client_requests_lost += cs.requests_lost;
    kvsvc_stats_.client_data_corrupt += cs.data_corrupt;
    kvsvc_stats_.client_stale_completions += cs.stale_completions;
    kvsvc_stats_.client_inline_bytes += cs.inline_bytes;
    kvsvc_stats_.client_rendezvous_bytes += cs.rendezvous_bytes;
    kvsvc_stats_.client_doorbell_flushes += cs.doorbell_flushes;
  }
  kv_clients_.clear();
  for (const auto& s : kv_servers_) {
    s->shutdown();
    const svc::KvServerStats& ss = s->stats();
    kvsvc_stats_.conns_accepted += ss.conns_accepted;
    kvsvc_stats_.conns_shed += ss.conns_shed;
    kvsvc_stats_.conns_closed += ss.conns_closed;
    kvsvc_stats_.conns_abandoned += ss.conns_abandoned;
    kvsvc_stats_.admission_rejected += ss.admission_rejected;
    kvsvc_stats_.requests += ss.requests;
    kvsvc_stats_.gets += ss.gets;
    kvsvc_stats_.puts += ss.puts;
    kvsvc_stats_.not_found += ss.not_found;
    kvsvc_stats_.corrupt_payloads += ss.corrupt_payloads;
    kvsvc_stats_.arena_full += ss.arena_full;
    kvsvc_stats_.inline_bytes += ss.inline_bytes;
    kvsvc_stats_.eager_copies += ss.eager_copies;
    kvsvc_stats_.rendezvous_ops += ss.rendezvous_ops;
    kvsvc_stats_.rendezvous_bytes += ss.rendezvous_bytes;
    kvsvc_stats_.rendezvous_failed += ss.rendezvous_failed;
    kvsvc_stats_.batches += ss.batches;
    kvsvc_stats_.batched_completions += ss.batched_completions;
    kvsvc_stats_.batched_replies += ss.batched_replies;
    kvsvc_stats_.requests_dropped += ss.requests_dropped;
    kvsvc_stats_.send_errors += ss.send_errors;
    counters_.bytes_moved += ss.inline_bytes + ss.rendezvous_bytes;
  }
  kv_servers_.clear();

  for (ChurnActor& c : churners_) {
    Tenant& t = tenants_[c.host][c.tenant];
    for (const via::MemHandle& mh : c.held)
      if (ok(t.vipl->deregister_mem(mh))) ++counters_.deregistrations;
    c.held.clear();
  }

  std::vector<std::pair<HostId, simkern::Pid>> infra;
  if (comm_) {
    for (std::uint32_t r = 0; r < spec_.hosts; ++r)
      infra.emplace_back(r, comm_->rank_pid(r));
    comm_.reset();
  }
  // Highest (from, to) first: trace exports record teardown in this order.
  while (!channels_.empty()) channels_.pop_back();

  for (HostId h = 0; h < spec_.hosts; ++h)
    for (const Tenant& t : tenants_[h])
      cluster_->node(h).agent().release_tenant(t.pid);
  for (const auto& [h, pid] : infra)
    cluster_->node(h).agent().release_tenant(pid);
  for (HostId h = 0; h < spec_.hosts; ++h)
    if (auto* gov = cluster_->node(h).governor()) gov->flush();
}

void ScenarioEngine::violation(std::string msg) {
  report_.violations.push_back(std::move(msg));
}

void ScenarioEngine::audit() {
  if (counters_.transfers_attempted !=
      counters_.transfers_ok + counters_.transfers_failed)
    violation("transfer accounting does not balance");
  if (spec_.fault_rules.empty()) {
    if (counters_.transfers_failed > 0)
      violation("lost transfers in a fault-free run: " +
                std::to_string(counters_.transfers_failed));
    if (counters_.verify_failed > 0)
      violation("payload verification failures in a fault-free run: " +
                std::to_string(counters_.verify_failed));
  }
  for (HostId h = 0; h < spec_.hosts; ++h) {
    via::Node& node = cluster_->node(h);
    if (auto* gov = node.governor(); gov != nullptr && gov->total_charged() != 0)
      violation("host " + std::to_string(h) + ": governor still charges " +
                std::to_string(gov->total_charged()) + " pages after teardown");
    if (node.kernel().pinned_frames() != 0)
      violation("host " + std::to_string(h) + ": " +
                std::to_string(node.kernel().pinned_frames()) +
                " frames still pinned after teardown");
    for (const std::string& s : node.kernel().self_check())
      violation("host " + std::to_string(h) + " self-check: " + s);
  }
  if (sampler_) {
    for (const obs::SloFiring& f : sampler_->firings()) {
      const obs::SloSpec& r = sampler_->rules()[f.rule];
      violation("slo violated: " + r.metric + " " +
                std::string(obs::to_string(r.op)) + " " +
                std::to_string(r.threshold) + " observed " +
                std::to_string(f.observed) + " at " + std::to_string(f.when) +
                "ns");
    }
  }
  report_.invariants_ok = report_.violations.empty();
}

void ScenarioEngine::fill_report() {
  report_.counters = counters_;
  const EventScheduler::Stats& ss = sched_->stats();
  report_.events_dispatched = ss.dispatched;
  report_.peak_pending = ss.peak_pending;
  report_.busy_ns = ss.busy_ns;
  report_.cpu_total_ns = cluster_->clock().now();

  for (HostId h = 0; h < spec_.hosts; ++h) {
    via::Node& node = cluster_->node(h);
    const via::AgentStats& as = node.agent().stats();
    report_.agent_registrations += as.registrations;
    report_.agent_deregistrations += as.deregistrations;
    report_.admission_rejects += as.admission_rejects;
    report_.lock_failures += as.lock_failures;
    report_.tpt_full += as.tpt_full;
    if (auto* gov = node.governor()) {
      const pinmgr::GovernorStats& gs = gov->stats();
      report_.governor_admitted += gs.admitted;
      report_.governor_rejected +=
          gs.rejected_quota + gs.rejected_ceiling + gs.rejected_injected;
    }
  }
  if (faults_) report_.faults_injected = faults_->stats().total_injected();

  report_.latency_p50_ns = percentile(0.50);
  report_.latency_p99_ns = percentile(0.99);

  if (spec_.pattern == Pattern::KvService) {
    kvsvc_stats_.p50_ns = percentile(0.50);
    kvsvc_stats_.p95_ns = percentile(0.95);
    kvsvc_stats_.p99_ns = percentile(0.99);
    kvsvc_stats_.p999_ns = percentile(0.999);
  }

  if (spec_.pattern == Pattern::RpcFanout ||
      spec_.pattern == Pattern::SkewedKv ||
      spec_.pattern == Pattern::KvService) {
    Table t({"server", "ops", "bytes"});
    for (std::uint32_t s = 0; s < spec_.servers; ++s)
      t.row({Table::num(std::uint64_t{s}), Table::num(server_ops_[s]),
             Table::num(server_bytes_[s])});
    report_.breakdown = std::move(t);
  } else {
    Table t({"metric", "value"});
    t.row({"events", Table::num(report_.events_dispatched)});
    t.row({"makespan_ns", Table::num(report_.makespan_ns)});
    t.row({"transfers_ok", Table::num(counters_.transfers_ok)});
    report_.breakdown = std::move(t);
  }
}

std::string report_json(const ScenarioSpec& spec, const ScenarioReport& r) {
  std::string out = "{\n";
  auto num = [&out](const char* key, std::uint64_t v, bool comma = true) {
    out += std::string("  \"") + key + "\": " + std::to_string(v) +
           (comma ? ",\n" : "\n");
  };
  out += "  \"name\": " + obs::json_quote(spec.name) + ",\n";
  out += "  \"pattern\": " + obs::json_quote(to_string(spec.pattern)) +
         ",\n";
  num("seed", spec.seed);
  num("hosts", spec.hosts);
  num("tenants_per_host", spec.tenants_per_host);
  num("events_dispatched", r.events_dispatched);
  num("peak_pending", r.peak_pending);
  num("makespan_ns", r.makespan_ns);
  num("busy_ns", r.busy_ns);
  num("cpu_total_ns", r.cpu_total_ns);
  num("transfers_attempted", r.counters.transfers_attempted);
  num("transfers_ok", r.counters.transfers_ok);
  num("transfers_failed", r.counters.transfers_failed);
  num("bytes_moved", r.counters.bytes_moved);
  num("registrations_ok", r.counters.registrations_ok);
  num("registrations_failed", r.counters.registrations_failed);
  num("deregistrations", r.counters.deregistrations);
  num("rpcs", r.counters.rpcs);
  num("kv_gets", r.counters.kv_gets);
  num("kv_puts", r.counters.kv_puts);
  num("records_delivered", r.counters.records_delivered);
  num("allreduce_rounds", r.counters.allreduce_rounds);
  num("verify_ok", r.counters.verify_ok);
  num("verify_failed", r.counters.verify_failed);
  num("channels_created", r.counters.channels_created);
  num("agent_registrations", r.agent_registrations);
  num("agent_deregistrations", r.agent_deregistrations);
  num("admission_rejects", r.admission_rejects);
  num("lock_failures", r.lock_failures);
  num("tpt_full", r.tpt_full);
  num("governor_admitted", r.governor_admitted);
  num("governor_rejected", r.governor_rejected);
  num("faults_injected", r.faults_injected);
  num("latency_p50_ns", r.latency_p50_ns);
  num("latency_p99_ns", r.latency_p99_ns);
  num("barrier_ns", r.barrier_ns);
  num("broadcast_ns", r.broadcast_ns);
  num("bcast_msgs", r.bcast_msgs);
  num("allreduce_ns", r.allreduce_ns);
  num("alltoall_ns", r.alltoall_ns);
  num("registrations_plus_transfers", r.registrations_plus_transfers());
  out += std::string("  \"invariants_ok\": ") +
         (r.invariants_ok ? "true" : "false") + ",\n";
  out += "  \"violations\": [";
  for (std::size_t i = 0; i < r.violations.size(); ++i)
    out += (i ? ", " : "") + obs::json_quote(r.violations[i]);
  out += "],\n";
  out += "  \"breakdown\": {\"headers\": [";
  const auto& headers = r.breakdown.headers();
  for (std::size_t i = 0; i < headers.size(); ++i)
    out += (i ? ", " : "") + obs::json_quote(headers[i]);
  out += "], \"rows\": [";
  const auto& rows = r.breakdown.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += (i ? ", [" : "[");
    for (std::size_t j = 0; j < rows[i].size(); ++j)
      out += (j ? ", " : "") + obs::json_quote(rows[i][j]);
    out += "]";
  }
  out += "]}\n}\n";
  return out;
}

}  // namespace vialock::scenario
