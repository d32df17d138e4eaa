#include "scenario/engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>

#include "mp/collectives.h"
#include "obs/export.h"
#include "simkern/types.h"
#include "svc/kv_client.h"
#include "svc/kv_server.h"

namespace vialock::scenario {

using simkern::page_align_up;

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Independent, well-mixed seed per actor: the same spec seed reproduces
/// every actor's stream; distinct actors never share one.
std::uint64_t actor_seed(std::uint64_t seed, std::uint64_t uid) {
  SplitMix64 sm(seed ^ (kGolden * (uid + 1)));
  return sm.next();
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

/// Per-server ops and bytes: the breakdown of every pattern with servers.
struct ServerLoad {
  explicit ServerLoad(std::uint32_t servers) : ops(servers), bytes(servers) {}
  void add(std::uint32_t server, std::uint64_t n) {
    ++ops[server];
    bytes[server] += n;
  }
  [[nodiscard]] Table table() const {
    Table t({"server", "ops", "bytes"});
    for (std::uint32_t s = 0; s < ops.size(); ++s)
      t.row({Table::num(std::uint64_t{s}), Table::num(ops[s]),
             Table::num(bytes[s])});
    return t;
  }
  std::vector<std::uint64_t> ops;
  std::vector<std::uint64_t> bytes;
};

/// Zipf(skew) key popularity over [0, keys).
class Zipf {
 public:
  Zipf(std::uint32_t keys, double skew) : cdf_(keys) {
    double sum = 0.0;
    for (std::uint32_t i = 0; i < keys; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_[i] = sum;
    }
    for (auto& v : cdf_) v /= sum;
  }
  [[nodiscard]] std::uint32_t operator()(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    if (it == cdf_.end()) return static_cast<std::uint32_t>(cdf_.size() - 1);
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

// --- traffic-pattern drivers -----------------------------------------------

/// One traffic pattern. The engine owns what every pattern shares and calls
/// these at fixed points: build() once hosts, tenants and faults exist,
/// seed() before it creates the churners (actor uids run pattern actors
/// first), teardown() after channel and comm bytes are summed and before
/// churn registrations are released.
class ScenarioEngine::Driver {
 public:
  explicit Driver(ScenarioEngine& e)
      : e_(e), spec_(e.spec_), sched_(*e.sched_), clock_(e.cluster_->clock()),
        counters_(e.counters_) {}
  virtual ~Driver() = default;

  [[nodiscard]] virtual KStatus build() { return KStatus::Ok; }
  /// Create and post the pattern's actors; `uid` numbers their rng streams.
  virtual void seed(std::uint64_t& uid) = 0;
  virtual void teardown() {}
  /// report.breakdown; the default is the run summary.
  [[nodiscard]] virtual Table breakdown() const {
    Table t({"metric", "value"});
    t.row({"events", Table::num(e_.report_.events_dispatched)});
    t.row({"makespan_ns", Table::num(e_.report_.makespan_ns)});
    t.row({"transfers_ok", Table::num(counters_.transfers_ok)});
    return t;
  }
  /// The marker payload each channel stages; bounds its eager slot size.
  [[nodiscard]] virtual std::uint32_t max_payload() const { return 4096; }

 protected:
  ScenarioEngine& e_;
  const ScenarioSpec& spec_;
  EventScheduler& sched_;
  Clock& clock_;
  ScenarioCounters& counters_;
};

/// Closed-loop clients, one per (host, tenant) on hosts [first, last), each
/// running op() until its ops_per_tenant are spent.
class ScenarioEngine::ClientDriver : public Driver {
 public:
  ClientDriver(ScenarioEngine& e, HostId first, HostId last)
      : Driver(e), first_(first), last_(last) {}

  void seed(std::uint64_t& uid) override {
    for (HostId h = first_; h < last_; ++h)
      for (std::uint32_t t = 0; t < spec_.tenants_per_host; ++t)
        clients_.push_back({h, Rng(actor_seed(spec_.seed, uid++)),
                            spec_.ops_per_tenant});
    for (std::size_t i = 0; i < clients_.size(); ++i)
      post(clients_[i].rng.below(spec_.think_ns + 1), i);
  }

 protected:
  struct Client {
    HostId host = 0;
    Rng rng{1};
    std::uint32_t remaining = 0;
  };

  virtual void op(std::size_t client) = 0;
  void post(Nanos when, std::size_t client) {
    sched_.post(when, clients_[client].host, [this, client] { op(client); });
  }
  /// The client's op finished at `done`: think, then issue the next one.
  void next(std::size_t client, Nanos done) {
    if (--clients_[client].remaining > 0) post(done + spec_.think_ns, client);
  }

  std::vector<Client> clients_;
  const HostId first_;  ///< clients run on hosts [first_, last_)
  const HostId last_;
};

// --- RPC fan-out -------------------------------------------------------------

class ScenarioEngine::RpcDriver final : public ClientDriver {
 public:
  explicit RpcDriver(ScenarioEngine& e)
      : ClientDriver(e, e.spec_.servers, e.spec_.hosts), perm_(spec_.servers) {
    for (std::uint32_t i = 0; i < spec_.servers; ++i) perm_[i] = i;
  }
  [[nodiscard]] Table breakdown() const override { return load_.table(); }
  [[nodiscard]] std::uint32_t max_payload() const override {
    return std::max(spec_.request_bytes, spec_.response_bytes);
  }

 private:
  void op(std::size_t client) override {
    Client& a = clients_[client];
    const Nanos issued = sched_.now();
    // Partial Fisher-Yates over the persistent permutation: a uniform
    // k-subset of servers per request in O(k).
    const std::uint32_t k = std::min<std::uint32_t>(spec_.fanout, 64);
    const auto n = static_cast<std::uint32_t>(perm_.size());
    for (std::uint32_t i = 0; i < k; ++i)
      std::swap(perm_[i], perm_[i + a.rng.below(n - i)]);
    const VirtualStopwatch sw(clock_);
    for (std::uint32_t i = 0; i < k; ++i) {
      const HostId srv = perm_[i];
      const bool sent =
          e_.do_transfer(e_.channel(a.host, srv), spec_.request_bytes);
      const bool replied =
          e_.do_transfer(e_.channel(srv, a.host), spec_.response_bytes);
      load_.add(srv, spec_.request_bytes + spec_.response_bytes);
      if (sent && replied) ++counters_.verify_ok;  // round trip completed
    }
    ++counters_.rpcs;
    const Nanos done = sched_.charge_host(a.host, issued, sw.elapsed());
    for (std::uint32_t i = 0; i < k; ++i) sched_.hold_host(perm_[i], done);
    e_.latency_.add(done - issued);
    next(client, done);
  }

  ServerLoad load_{spec_.servers};
  /// Persistent permutation shared by every client (the report bytes depend
  /// on it staying shared).
  std::vector<std::uint32_t> perm_;
};

// --- skewed KV ---------------------------------------------------------------

class ScenarioEngine::KvDriver final : public ClientDriver {
 public:
  explicit KvDriver(ScenarioEngine& e)
      : ClientDriver(e, e.spec_.servers, e.spec_.hosts),
        zipf_(spec_.keys, spec_.skew) {}
  [[nodiscard]] Table breakdown() const override { return load_.table(); }
  [[nodiscard]] std::uint32_t max_payload() const override {
    return std::max({spec_.request_bytes, spec_.response_bytes,
                     spec_.value_bytes});
  }

 private:
  void op(std::size_t client) override {
    Client& a = clients_[client];
    const Nanos issued = sched_.now();
    const bool put = a.rng.chance(spec_.put_fraction);
    const HostId srv = zipf_(a.rng) % spec_.servers;
    const VirtualStopwatch sw(clock_);
    // Both channels exist before either transfer: the report bytes depend
    // on the creation order.
    msg::Channel* req = e_.channel(a.host, srv);
    msg::Channel* resp = e_.channel(srv, a.host);
    const std::uint32_t out = put ? spec_.value_bytes : spec_.request_bytes;
    const std::uint32_t back = put ? spec_.response_bytes : spec_.value_bytes;
    bool complete = e_.do_transfer(req, out);
    complete &= e_.do_transfer(resp, back);
    load_.add(srv, out + back);
    if (put) {
      ++counters_.kv_puts;
    } else if (++counters_.kv_gets % 64 == 0 && complete) {
      // Spot-check every 64th completed GET: the payload that landed in
      // the client heap must carry the server's marker.
      std::array<std::byte, 8> got{};
      if (ok(resp->fetch(0, got)))
        read_marker(got) == (kGolden * (srv + 1) ^ spec_.seed)
            ? ++counters_.verify_ok
            : ++counters_.verify_failed;
    }
    const Nanos done = sched_.charge_host(a.host, issued, sw.elapsed());
    sched_.hold_host(srv, done);
    e_.latency_.add(done - issued);
    next(client, done);
  }

  ServerLoad load_{spec_.servers};
  Zipf zipf_;
};

// --- streaming pipeline ------------------------------------------------------

/// One source per tenant on host 0; each record hops host by host to the
/// last host, which checks its marker.
class ScenarioEngine::PipelineDriver final : public ClientDriver {
 public:
  explicit PipelineDriver(ScenarioEngine& e) : ClientDriver(e, 0, 1) {}
  [[nodiscard]] std::uint32_t max_payload() const override {
    return spec_.record_bytes;
  }

 private:
  void op(std::size_t source) override {
    const Nanos issued = sched_.now();
    const std::uint64_t record = page_align_up(spec_.record_bytes);
    const std::uint64_t slots = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(64, spec_.channel_heap_bytes / record));
    // Backpressure: at most `slots` records in flight end to end. With that
    // credit, record seq-slots has retired before seq is emitted, so the
    // slot it shared on every channel has been drained - restaging cannot
    // corrupt a record still traversing the pipe.
    if (seq_ - retired_ >= slots) {
      post(issued + std::max<Nanos>(spec_.think_ns, 100), source);
      return;
    }
    const VirtualStopwatch sw(clock_);
    const std::uint64_t seq = seq_++;
    const std::uint64_t slot_off = (seq % slots) * record;
    const std::uint64_t marker = actor_seed(spec_.seed, kGolden ^ seq);
    msg::Channel* out = e_.channel(0, 1);
    if (out != nullptr)
      (void)out->stage(slot_off, marked_payload(spec_.record_bytes, marker));
    const bool sent =
        e_.do_transfer(out, spec_.record_bytes, slot_off, slot_off);
    const Nanos done = sched_.charge_host(0, issued, sw.elapsed());
    sched_.hold_host(1, done);
    if (sent)
      sched_.post(done, 1, [=, this] { hop(1, slot_off, marker); });
    else
      ++retired_;  // dropped on the first wire: credit comes back
    next(source, done);
  }

  void hop(HostId host, std::uint64_t slot_off, std::uint64_t marker) {
    const Nanos issued = sched_.now();
    const VirtualStopwatch sw(clock_);
    msg::Channel* in = e_.channel(host - 1, host);
    if (host == spec_.hosts - 1) {
      std::array<std::byte, 8> got{};
      if (in != nullptr && ok(in->fetch(slot_off, got)))
        read_marker(got) == marker ? ++counters_.verify_ok
                                   : ++counters_.verify_failed;
      ++counters_.records_delivered;
      ++retired_;
      e_.latency_.add(sched_.charge_host(host, issued, sw.elapsed()) - issued);
      return;
    }
    std::vector<std::byte> buf(spec_.record_bytes);
    bool forwarded = false;
    if (in != nullptr && ok(in->fetch(slot_off, buf))) {
      msg::Channel* out = e_.channel(host, host + 1);
      if (out != nullptr) (void)out->stage(slot_off, buf);
      forwarded = e_.do_transfer(out, spec_.record_bytes, slot_off, slot_off);
    }
    const Nanos done = sched_.charge_host(host, issued, sw.elapsed());
    sched_.hold_host(host + 1, done);
    if (forwarded)
      sched_.post(done, host + 1,
                  [=, this] { hop(host + 1, slot_off, marker); });
    else
      ++retired_;  // record died mid-pipe: release its slot credit
  }

  std::uint64_t seq_ = 0;
  /// Records that left the pipe: delivered at the tail, or died on a failed
  /// transfer. The emitter stalls while seq - retired would exceed the
  /// channel slot ring, so a slot is provably drained before it is restaged.
  std::uint64_t retired_ = 0;
};

// --- parameter-server allreduce ----------------------------------------------

/// Host 0 is the parameter server: every other host pushes a shard per
/// round, host 0 folds them and sends the sum back to each worker.
class ScenarioEngine::PsDriver final : public Driver {
 public:
  using Driver::Driver;
  [[nodiscard]] KStatus build() override {
    mp::Comm::Config cc;
    cc.eager_credits = 2;
    cc.heap_bytes = std::max<std::uint64_t>(
        256 * 1024, (spec_.hosts + 2ULL) * page_align_up(spec_.shard_bytes));
    cc.lazy_links = true;
    result_reqs_.assign(spec_.hosts - 1, mp::kInvalidReq);
    return e_.build_comm(cc);
  }
  void seed(std::uint64_t&) override {
    if (spec_.rounds > 0) sched_.post(0, 0, [this] { begin_round(); });
  }

 private:
  [[nodiscard]] std::int32_t tag(std::uint32_t k) const {
    return static_cast<std::int32_t>(2 * round_ + k);
  }
  /// What every u64 of `worker`'s shard holds this round: (round+1)*worker.
  [[nodiscard]] std::uint64_t fill(std::uint32_t worker) const {
    return static_cast<std::uint64_t>(round_ + 1) * worker;
  }
  /// One shard transfer, counted in the transfer accounting.
  void send(std::uint32_t from, std::uint32_t to, std::int32_t t) {
    ++counters_.transfers_attempted;
    const mp::ReqId req = e_.comm_->isend(from, to, t, 0, spec_.shard_bytes);
    const bool sent = req != mp::kInvalidReq && e_.comm_->wait(req);
    sent ? ++counters_.transfers_ok : ++counters_.transfers_failed;
  }

  void begin_round() {
    const Nanos issued = sched_.now();
    const VirtualStopwatch sw(clock_);
    const std::uint32_t workers = spec_.hosts - 1;
    recv_reqs_.assign(workers, mp::kInvalidReq);
    for (std::uint32_t w = 1; w <= workers; ++w)
      recv_reqs_[w - 1] =
          e_.comm_->irecv(0, static_cast<std::int32_t>(w), tag(0),
                          w * page_align_up(spec_.shard_bytes),
                          spec_.shard_bytes);
    const Nanos done = sched_.charge_host(0, issued, sw.elapsed());
    for (std::uint32_t w = 1; w <= workers; ++w)
      sched_.post(done, w, [this, w] { push(w); });
  }

  void push(std::uint32_t worker) {
    const Nanos issued = sched_.now();
    const VirtualStopwatch sw(clock_);
    const std::uint64_t val = fill(worker);
    std::vector<std::byte> shard(spec_.shard_bytes);
    for (std::size_t i = 0; i + 8 <= shard.size(); i += 8)
      std::memcpy(&shard[i], &val, 8);
    (void)e_.comm_->stage(worker, 0, shard);
    send(worker, 0, tag(0));
    // Pre-post the result receive before the server can send it.
    result_reqs_[worker - 1] =
        e_.comm_->irecv(worker, 0, tag(1), 0, spec_.shard_bytes);
    const Nanos done = sched_.charge_host(worker, issued, sw.elapsed());
    sched_.hold_host(0, done);
    e_.latency_.add(done - issued);
    sched_.post(done, 0, [this, worker] { arrival(worker); });
  }

  void arrival(std::uint32_t worker) {
    mp::Comm& comm = *e_.comm_;
    const Nanos issued = sched_.now();
    const VirtualStopwatch sw(clock_);
    const std::uint32_t workers = spec_.hosts - 1;
    const std::uint32_t count = spec_.shard_bytes / 8;
    if (recv_reqs_[worker - 1] != mp::kInvalidReq)
      (void)comm.wait(recv_reqs_[worker - 1]);
    if (++arrived_ < workers) {
      sched_.charge_host(0, issued, sw.elapsed());
      return;
    }
    // Reduce: fold every worker region, verifying each shard's fill.
    std::vector<std::uint64_t> acc(count, 0);
    std::vector<std::byte> raw(spec_.shard_bytes);
    for (std::uint32_t w = 1; w <= workers; ++w) {
      if (!ok(comm.fetch(0, w * page_align_up(spec_.shard_bytes), raw)))
        continue;
      std::uint64_t first = 0;
      std::memcpy(&first, raw.data(), 8);
      first == fill(w) ? ++counters_.verify_ok : ++counters_.verify_failed;
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t v = 0;
        std::memcpy(&v, &raw[i * 8], 8);
        acc[i] += v;
      }
    }
    expected_sum_ = 0;
    for (std::uint32_t w = 1; w <= workers; ++w) expected_sum_ += fill(w);
    std::vector<std::byte> result(spec_.shard_bytes);
    for (std::uint32_t i = 0; i < count; ++i)
      std::memcpy(&result[i * 8], &acc[i], 8);
    (void)comm.stage(0, 0, result);
    for (std::uint32_t w = 1; w <= workers; ++w) send(0, w, tag(1));
    ++counters_.allreduce_rounds;
    arrived_ = 0;
    ++round_;
    const Nanos done = sched_.charge_host(0, issued, sw.elapsed());
    for (std::uint32_t w = 1; w <= workers; ++w) {
      sched_.hold_host(w, done);
      sched_.post(done, w, [this, w] { worker_check(w); });
    }
    if (round_ < spec_.rounds) sched_.post(done, 0, [this] { begin_round(); });
  }

  void worker_check(std::uint32_t worker) {
    const Nanos issued = sched_.now();
    const VirtualStopwatch sw(clock_);
    std::array<std::byte, 8> got{};
    if (result_reqs_[worker - 1] != mp::kInvalidReq &&
        e_.comm_->wait(result_reqs_[worker - 1]) &&
        ok(e_.comm_->fetch(worker, 0, got))) {
      std::uint64_t v = 0;
      std::memcpy(&v, got.data(), 8);
      v == expected_sum_ ? ++counters_.verify_ok : ++counters_.verify_failed;
    }
    sched_.charge_host(worker, issued, sw.elapsed());
  }

  std::vector<mp::ReqId> recv_reqs_;    ///< PS-side, indexed by worker-1
  std::vector<mp::ReqId> result_reqs_;  ///< worker-side result receives
  std::uint32_t round_ = 0;
  std::uint32_t arrived_ = 0;
  std::uint64_t expected_sum_ = 0;
};

// --- collectives (E12) -------------------------------------------------------

/// One round per event on host 0: barrier, broadcast, allreduce, alltoall,
/// each timed into the report's E12 scalars.
class ScenarioEngine::CollectivesDriver final : public Driver {
 public:
  using Driver::Driver;
  [[nodiscard]] KStatus build() override {
    // Every round ends with an alltoall, which touches every pair, so the
    // links are built eagerly. Heap layout: broadcast payload and allreduce
    // vector at 0, allreduce scratch at 64 KiB, then the alltoall blocks at
    // 128 KiB followed by their snapshot (whose first 16 bytes double as
    // the barrier's token scratch).
    mp::Comm::Config cc;
    cc.heap_bytes = kCollAlltoall + 2ULL * spec_.hosts * spec_.alltoall_block;
    return e_.build_comm(cc);
  }
  void seed(std::uint64_t&) override {
    if (spec_.rounds > 0) sched_.post(0, 0, [this] { round(); });
  }

 private:
  void round() {
    mp::Comm& comm = *e_.comm_;
    ScenarioReport& rep = e_.report_;
    const Nanos issued = sched_.now();
    const VirtualStopwatch total(clock_);
    const std::uint64_t scratch =
        kCollAlltoall + std::uint64_t{spec_.hosts} * spec_.alltoall_block;
    if (round_ == 0) {
      // Stage the root payload and run one untimed warmup barrier before
      // the timed sequence.
      const std::vector<std::byte> payload(spec_.payload_bytes,
                                           std::byte{0xAB});
      (void)comm.stage(0, 0, payload);
      (void)mp::barrier(comm, scratch);
    }
    // One timed collective: its virtual time into `ns`, one transfer.
    const auto timed = [&](Nanos& ns, auto&& collective) {
      const VirtualStopwatch sw(clock_);
      const KStatus st = collective();
      ns += sw.elapsed();
      ++counters_.transfers_attempted;
      ok(st) ? ++counters_.transfers_ok : ++counters_.transfers_failed;
    };
    timed(rep.barrier_ns, [&] { return mp::barrier(comm, scratch); });
    const mp::CommStats& cs = comm.stats();
    const std::uint64_t before = cs.eager_sends + cs.rendezvous_sends;
    timed(rep.broadcast_ns,
          [&] { return mp::broadcast(comm, 0, 0, spec_.payload_bytes); });
    rep.bcast_msgs += cs.eager_sends + cs.rendezvous_sends - before;
    timed(rep.allreduce_ns, [&] {
      return mp::allreduce_sum(comm, 0, spec_.allreduce_count,
                               kCollReduceScratch);
    });
    timed(rep.alltoall_ns, [&] {
      return mp::alltoall(comm, kCollAlltoall, spec_.alltoall_block, scratch);
    });
    // bytes_moved comes from the communicator's own count at teardown.
    const Nanos done = sched_.charge_host(0, issued, total.elapsed());
    for (HostId h = 1; h < spec_.hosts; ++h) sched_.hold_host(h, done);
    e_.latency_.add(done - issued);
    if (++round_ < spec_.rounds) sched_.post(done, 0, [this] { round(); });
  }

  std::uint32_t round_ = 0;
};

// --- kv-server service tier --------------------------------------------------

/// svc::KvServer on hosts [0, servers) and one open-loop svc::KvClient per
/// other host, with optional connection churn.
class ScenarioEngine::KvServiceDriver final : public Driver {
 public:
  explicit KvServiceDriver(ScenarioEngine& e)
      : Driver(e), zipf_(spec_.keys, spec_.skew) {}

  [[nodiscard]] KStatus build() override {
    const std::uint32_t chosts = spec_.hosts - spec_.servers;
    const auto guaranteed = static_cast<std::uint32_t>(
        spec_.tenants_per_host * spec_.guaranteed_fraction + 0.5);

    svc::KvServerConfig sc;
    sc.slot_size = spec_.value_bytes + 128;
    sc.recv_credits = spec_.pipeline_window;
    sc.completion_batch = spec_.completion_batch;
    sc.inline_threshold = spec_.value_bytes;
    // Rendezvous PUTs always take fresh arena space (commit-after-verify),
    // so size the arena for the expected large-PUT volume plus one
    // inline-sized slab per key, with 2x headroom for skewed placement.
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

    servers_.reserve(spec_.servers);
    for (std::uint32_t s = 0; s < spec_.servers; ++s) {
      auto srv = std::make_unique<svc::KvServer>(*e_.cluster_, s, sc);
      if (const KStatus st = srv->init(); !ok(st)) return st;
      for (std::uint32_t t = 0; t < spec_.tenants_per_host; ++t) {
        svc::KvServer::TenantConfig tc;
        tc.name = "s" + std::to_string(s) + ".t" + std::to_string(t);
        tc.quota_pages = spec_.tenant_quota_pages;
        tc.tier = t < guaranteed ? pinmgr::QosTier::Guaranteed
                                 : pinmgr::QosTier::BestEffort;
        (void)srv->add_tenant(tc);
      }
      servers_.push_back(std::move(srv));
    }

    svc::KvClientConfig cc;
    cc.slot_size = sc.slot_size;
    cc.window = spec_.pipeline_window;
    cc.value_window_bytes = spec_.large_value_bytes;
    cc.inline_threshold = spec_.value_bytes;
    cc.completion_batch = spec_.completion_batch;

    actors_.reserve(chosts);
    for (HostId h = spec_.servers; h < spec_.hosts; ++h) {
      Actor a;
      a.host = h;
      a.client = std::make_unique<svc::KvClient>(
          *e_.cluster_, h, "kvc.h" + std::to_string(h), cc);
      if (const KStatus st = a.client->open(); !ok(st)) return st;
      // Offset the uid space so kv actors never share a churner's stream.
      a.rng = Rng(actor_seed(spec_.seed, (1ULL << 32) + h));
      a.ops_remaining = spec_.connections_per_client * spec_.ops_per_tenant;
      a.churn_remaining = spec_.conn_churn_per_client;
      a.churn_every = a.churn_remaining
                          ? std::max<std::uint32_t>(
                                1, a.ops_remaining / (a.churn_remaining + 1))
                          : 0;
      a.conns.resize(spec_.connections_per_client);
      for (std::uint32_t c = 0; c < spec_.connections_per_client; ++c) {
        ConnRef& ref = a.conns[c];
        ref.server = c % spec_.servers;
        ref.tenant = (c / spec_.servers) % spec_.tenants_per_host;
        // Shed slots stay closed; the actor retries during the run.
        ref.open = ok(a.client->connect(*servers_[ref.server], ref.tenant,
                                        ref.conn));
      }
      actors_.push_back(std::move(a));
    }
    note_open_conns();
    return KStatus::Ok;
  }

  void seed(std::uint64_t&) override {
    for (std::size_t i = 0; i < actors_.size(); ++i)
      sched_.post(actors_[i].rng.below(spec_.think_ns + 1), actors_[i].host,
                  [this, i] { op(i); });
  }

  void teardown() override {
    // Capture the svc tier's accounting before destroying it. Clients go
    // first (their disconnects are ordinary peer departures), then each
    // server's shutdown must leave its node audit-clean.
    KvServiceStats& ks = e_.kvsvc_stats_;
    for (Actor& a : actors_) {
      const svc::KvClientStats& cs = a.client->stats();
      ks.client_requests_lost += cs.requests_lost;
      ks.client_data_corrupt += cs.data_corrupt;
      ks.client_stale_completions += cs.stale_completions;
      ks.client_inline_bytes += cs.inline_bytes;
      ks.client_rendezvous_bytes += cs.rendezvous_bytes;
      ks.client_doorbell_flushes += cs.doorbell_flushes;
    }
    actors_.clear();
    for (const auto& s : servers_) {
      s->shutdown();
      const svc::KvServerStats& ss = s->stats();
      ks.conns_accepted += ss.conns_accepted;
      ks.conns_shed += ss.conns_shed;
      ks.conns_closed += ss.conns_closed;
      ks.conns_abandoned += ss.conns_abandoned;
      ks.admission_rejected += ss.admission_rejected;
      ks.requests += ss.requests;
      ks.gets += ss.gets;
      ks.puts += ss.puts;
      ks.not_found += ss.not_found;
      ks.corrupt_payloads += ss.corrupt_payloads;
      ks.arena_full += ss.arena_full;
      ks.inline_bytes += ss.inline_bytes;
      ks.eager_copies += ss.eager_copies;
      ks.rendezvous_ops += ss.rendezvous_ops;
      ks.rendezvous_bytes += ss.rendezvous_bytes;
      ks.rendezvous_failed += ss.rendezvous_failed;
      ks.batches += ss.batches;
      ks.batched_completions += ss.batched_completions;
      ks.batched_replies += ss.batched_replies;
      ks.requests_dropped += ss.requests_dropped;
      ks.send_errors += ss.send_errors;
      counters_.bytes_moved += ss.inline_bytes + ss.rendezvous_bytes;
    }
    servers_.clear();
    ks.p50_ns = e_.latency_.quantile(0.50);
    ks.p95_ns = e_.latency_.quantile(0.95);
    ks.p99_ns = e_.latency_.quantile(0.99);
    ks.p999_ns = e_.latency_.quantile(0.999);
  }

  [[nodiscard]] Table breakdown() const override { return load_.table(); }

 private:
  /// One client connection, with its fixed (server, tenant) placement so
  /// churn reconnects land in the same spot.
  struct ConnRef {
    std::uint32_t conn = 0;
    std::uint32_t server = 0;
    std::uint32_t tenant = 0;
    bool open = false;
  };
  /// One client host: its KvClient plus the open-loop driver state.
  struct Actor {
    HostId host = 0;
    std::unique_ptr<svc::KvClient> client;
    Rng rng{1};
    std::uint32_t ops_remaining = 0;
    std::uint32_t churn_remaining = 0;
    std::uint32_t churn_every = 0;  ///< ops between churn cycles
    std::uint32_t ops_since_churn = 0;
    std::uint32_t next_conn = 0;  ///< round-robin connection cursor
    std::uint32_t stalls = 0;     ///< consecutive events with no usable conn
    std::vector<ConnRef> conns;
    std::map<std::uint64_t, Nanos> issue_ns;  ///< req_id -> issue time
  };

  void note_open_conns() {
    std::uint64_t open = 0;
    for (const auto& s : servers_) open += s->open_conns();
    KvServiceStats& ks = e_.kvsvc_stats_;
    ks.peak_open_conns = std::max(ks.peak_open_conns, open);
  }

  /// Reconnect a closed ConnRef; false when the server shed it again.
  bool reconnect(Actor& a, ConnRef& ref) {
    ref.open = ok(a.client->connect(*servers_[ref.server], ref.tenant,
                                    ref.conn));
    if (!ref.open) ++e_.kvsvc_stats_.reconnect_failed;
    return ref.open;
  }

  /// One connection churn cycle (graceful close or mid-pipeline abandon,
  /// then reconnect) on the actor's next open connection.
  void churn(Actor& a) {
    --a.churn_remaining;
    a.ops_since_churn = 0;
    svc::KvClient& cli = *a.client;
    ConnRef* ref = nullptr;
    for (std::uint32_t tries = 0; tries < a.conns.size() && ref == nullptr;
         ++tries) {
      ConnRef& r = a.conns[a.next_conn++ % a.conns.size()];
      if (r.open) ref = &r;
    }
    if (ref == nullptr) return;  // nothing connected to churn
    svc::KvServer& srv = *servers_[ref->server];
    if (a.rng.chance(spec_.churn_abandon_fraction)) {
      // Abrupt: leave requests in flight so the *server* discovers the
      // loss - its replies bounce with ErrDisconnected and it must reclaim
      // the connection's pins and governor charge on its own. These
      // requests are lost by design and never enter the transfer
      // accounting.
      for (std::uint32_t i = 0;
           i < spec_.pipeline_window && cli.can_issue(ref->conn); ++i) {
        std::uint64_t req_id = 0;
        if (!ok(cli.get(ref->conn, zipf_(a.rng), req_id))) break;
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
    (void)reconnect(a, *ref);  // shed slots get retried by later events
  }

  void op(std::size_t actor) {
    Actor& a = actors_[actor];
    const Nanos issued = sched_.now();
    const VirtualStopwatch sw(clock_);
    svc::KvClient& cli = *a.client;
    std::uint32_t touched_server = UINT32_MAX;
    results_.clear();

    if (a.churn_remaining > 0 && a.ops_since_churn >= a.churn_every) {
      churn(a);
    } else if (a.ops_remaining > 0) {
      // Next usable connection, round-robin; closed (shed) slots get a
      // reconnect attempt on the way past.
      ConnRef* ref = nullptr;
      for (std::uint32_t tries = 0; tries < a.conns.size() && ref == nullptr;
           ++tries) {
        ConnRef& r = a.conns[a.next_conn++ % a.conns.size()];
        if (r.open || reconnect(a, r)) ref = &r;
      }
      if (ref == nullptr) {
        // Every slot shed and the server still refuses: allow a few
        // retries, then drop the remaining (never-issued) ops so the run
        // terminates.
        if (++a.stalls > 8) a.ops_remaining = 0;
      } else {
        a.stalls = 0;
        touched_server = ref->server;
        svc::KvServer& srv = *servers_[ref->server];
        // Fill the connection's pipeline window in one burst, flush the
        // burst behind one doorbell, let the server run batched service
        // cycles, then harvest the responses.
        const std::uint32_t burst =
            std::min(spec_.pipeline_window, a.ops_remaining);
        for (std::uint32_t i = 0; i < burst && cli.can_issue(ref->conn); ++i) {
          const bool put = a.rng.chance(spec_.put_fraction);
          const std::uint64_t key = zipf_(a.rng);
          const bool large = a.rng.chance(spec_.large_fraction);
          std::uint64_t req_id = 0;
          KStatus st;
          if (put) {
            value_.resize(large ? spec_.large_value_bytes : spec_.value_bytes);
            svc::KvClient::fill_value(value_, key, spec_.seed);
            st = cli.put(ref->conn, key, value_, req_id);
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
        while (cli.harvest(results_) != 0) {
        }
      }
    }

    const Nanos done = sched_.charge_host(a.host, issued, sw.elapsed());
    if (touched_server != UINT32_MAX) sched_.hold_host(touched_server, done);
    for (const svc::KvResult& r : results_) {
      ++counters_.transfers_attempted;
      const bool served = r.data_ok && (r.status == svc::KvStatus::Ok ||
                                        r.status == svc::KvStatus::NotFound);
      served ? ++counters_.transfers_ok : ++counters_.transfers_failed;
      if (r.op == svc::KvOp::Get && r.status == svc::KvStatus::Ok)
        r.data_ok ? ++counters_.verify_ok : ++counters_.verify_failed;
      else if (!r.data_ok)
        ++counters_.verify_failed;
      load_.add(touched_server == UINT32_MAX ? 0 : touched_server,
                r.value_len);
      const auto it = a.issue_ns.find(r.req_id);
      const Nanos t0 = it == a.issue_ns.end() ? issued : it->second;
      if (it != a.issue_ns.end()) a.issue_ns.erase(it);
      e_.latency_.add(done - t0);
    }
    note_open_conns();
    if (a.ops_remaining > 0 || a.churn_remaining > 0)
      sched_.post(done + spec_.think_ns, a.host, [this, actor] { op(actor); });
  }

  ServerLoad load_{spec_.servers};
  Zipf zipf_;
  std::vector<std::unique_ptr<svc::KvServer>> servers_;  ///< hosts [0, servers)
  std::vector<Actor> actors_;  ///< one per client host
  std::vector<std::byte> value_;  ///< every put's value; fill_value writes it all
  std::vector<svc::KvResult> results_;  ///< one op()'s harvest
};

// --- build --------------------------------------------------------------------

ScenarioEngine::ScenarioEngine(ScenarioSpec spec) : spec_(std::move(spec)) {}
ScenarioEngine::~ScenarioEngine() = default;

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

  switch (spec_.pattern) {
    case Pattern::RpcFanout: driver_ = std::make_unique<RpcDriver>(*this); break;
    case Pattern::SkewedKv: driver_ = std::make_unique<KvDriver>(*this); break;
    case Pattern::Pipeline:
      driver_ = std::make_unique<PipelineDriver>(*this);
      break;
    case Pattern::PsAllreduce: driver_ = std::make_unique<PsDriver>(*this); break;
    case Pattern::Collectives:
      driver_ = std::make_unique<CollectivesDriver>(*this);
      break;
    case Pattern::KvService:
      driver_ = std::make_unique<KvServiceDriver>(*this);
      break;
  }
  if (const KStatus st = driver_->build(); !ok(st)) return st;

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
      const auto tier = t < guaranteed ? pinmgr::QosTier::Guaranteed
                                       : pinmgr::QosTier::BestEffort;
      if (node.governor())
        node.governor()->set_tenant(ten.pid, spec_.tenant_quota_pages, tier);
      if (spec_.churn_regs_per_tenant > 0) {
        ten.vipl = std::make_unique<via::Vipl>(node.agent(), ten.pid);
        if (const KStatus st = ten.vipl->open(); !ok(st)) return st;
        const std::uint64_t slab =
            page_align_up(spec_.churn_bytes) * spec_.churn_hold;
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

KStatus ScenarioEngine::build_comm(const mp::Comm::Config& cc) {
  std::vector<via::NodeId> ids(spec_.hosts);
  for (std::uint32_t i = 0; i < spec_.hosts; ++i) ids[i] = i;
  comm_ = std::make_unique<mp::Comm>(*cluster_, std::move(ids), cc);
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

// --- channels ----------------------------------------------------------------

msg::Channel::Config ScenarioEngine::channel_config(HostId from,
                                                    HostId to) const {
  msg::Channel::Config cfg;
  // Slots sized to the workload, not the 8 KB default: at 256 hosts a server
  // carries hundreds of channel sides and every slot page is pinned memory.
  // Only payloads below kEagerThreshold ever ride the eager path (anything
  // larger goes rendezvous), so size the ring for the largest eager-eligible
  // payload, not for max_payload().
  std::uint32_t eager_max = 0;
  for (const std::uint32_t p :
       {spec_.request_bytes, spec_.response_bytes, spec_.value_bytes,
        spec_.record_bytes, spec_.payload_bytes})
    if (p <= driver_->max_payload() && p < msg::Channel::kEagerThreshold)
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
  (void)ch->stage(0, marked_payload(driver_->max_payload(), marker));
  ++counters_.channels_created;
  slot = std::move(ch);
  return slot.get();
}

bool ScenarioEngine::do_transfer(msg::Channel* ch, std::uint32_t len,
                                 std::uint64_t src_off, std::uint64_t dst_off) {
  ++counters_.transfers_attempted;
  const bool sent =
      ch != nullptr && ok(ch->transfer_auto(src_off, dst_off, len));
  sent ? ++counters_.transfers_ok : ++counters_.transfers_failed;
  return sent;
}

// --- actor seeding -----------------------------------------------------------

void ScenarioEngine::seed_actors() {
  // Pattern actors first, then churners: uids, and so every actor's rng
  // stream and the order of same-time events, depend on it.
  std::uint64_t uid = 0;
  driver_->seed(uid);
  if (spec_.churn_regs_per_tenant == 0) return;
  for (HostId h = 0; h < spec_.hosts; ++h)
    for (std::uint32_t t = 0; t < spec_.tenants_per_host; ++t) {
      const std::size_t i = churners_.size();
      ChurnActor& c = churners_.emplace_back(
          ChurnActor{h, t, Rng(actor_seed(spec_.seed, uid++)),
                     spec_.churn_regs_per_tenant, {}, 0});
      sched_->post(1 + c.rng.below(spec_.think_ns + 1), h,
                   [this, i] { run_churn_op(i); });
    }
}

// --- registration churn ------------------------------------------------------

void ScenarioEngine::run_churn_op(std::size_t actor) {
  ChurnActor& c = churners_[actor];
  Tenant& t = tenants_[c.host][c.tenant];
  const Nanos issued = sched_->now();
  const VirtualStopwatch sw(cluster_->clock());

  const std::uint64_t slab_slot = page_align_up(spec_.churn_bytes);
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

  driver_->teardown();

  for (ChurnActor& c : churners_) {
    Tenant& t = tenants_[c.host][c.tenant];
    for (const via::MemHandle& mh : c.held)
      if (ok(t.vipl->deregister_mem(mh))) ++counters_.deregistrations;
    c.held.clear();
  }

  comm_.reset();
  // Highest (from, to) first: trace exports record teardown in this order.
  while (!channels_.empty()) channels_.pop_back();

  for (HostId h = 0; h < spec_.hosts; ++h)
    for (const Tenant& t : tenants_[h])
      cluster_->node(h).agent().release_tenant(t.pid);
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
    for (const std::string& s : node.quiescent())
      violation("host " + std::to_string(h) + ": " + s);
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

  report_.latency_p50_ns = latency_.quantile(0.50);
  report_.latency_p99_ns = latency_.quantile(0.99);

  report_.breakdown = driver_->breakdown();
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
