#include "mp/collectives.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/span.h"

namespace vialock::mp {

namespace {

/// Scoped instrumentation for one collective call: bumps the per-op counter
/// and records wall (virtual) time into the shared latency histogram on rank
/// 0's registry, opens a root span there, and pushes that span's context as
/// the ambient context on EVERY rank's recorder - so each rank's mp.isend /
/// mp.arrival spans, on whichever host they run, join one causal tree
/// (DESIGN.md section 11).
class CollectiveScope {
 public:
  CollectiveScope(Comm& comm, const char* op)
      : metrics_(comm.rank_kernel(0).metrics()),
        clock_(comm.rank_kernel(0).clock()),
        start_(clock_.now()),
        name_(std::string("mp.coll.") + op),
        span_(comm.rank_kernel(0).spans(), name_) {
    metrics_.counter(name_).inc();
    const obs::TraceContext ctx = span_.carried_context();
    for (Rank r = 0; r < comm.size(); ++r) {
      fan_out_.push_back(std::make_unique<obs::ScopedTraceContext>(
          comm.rank_kernel(r).spans(), ctx));
    }
  }
  ~CollectiveScope() {
    metrics_.histogram("mp.coll.op_ns").add(clock_.now() - start_);
  }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

 private:
  obs::MetricRegistry& metrics_;
  Clock& clock_;
  Nanos start_;
  std::string name_;
  // span_ before fan_out_: the ambient contexts pop before the root closes.
  obs::ScopedSpan span_;
  std::vector<std::unique_ptr<obs::ScopedTraceContext>> fan_out_;
};

/// One matched exchange: irecv at `to`, isend at `from`, wait both.
[[nodiscard]] KStatus exchange(Comm& comm, Rank from, Rank to,
                               std::int32_t tag, std::uint64_t src_off,
                               std::uint64_t dst_off, std::uint32_t len) {
  const ReqId r = comm.irecv_internal(to, static_cast<std::int32_t>(from), tag,
                                      dst_off, len);
  const ReqId s = comm.isend_internal(from, to, tag, src_off, len);
  if (!comm.wait(r)) return KStatus::Proto;
  if (!comm.wait(s)) return KStatus::Proto;
  return KStatus::Ok;
}

}  // namespace

KStatus barrier(Comm& comm, std::uint64_t scratch_offset) {
  const CollectiveScope scope(comm, "barrier");
  const Rank n = comm.size();
  for (Rank k = 1; k < n; k <<= 1) {
    for (Rank r = 0; r < n; ++r) {
      const Rank to = (r + k) % n;
      if (const KStatus st = exchange(comm, r, to, kBarrierTag,
                                      scratch_offset, scratch_offset + 8, 8);
          !ok(st)) {
        return st;
      }
    }
  }
  return KStatus::Ok;
}

KStatus broadcast(Comm& comm, Rank root, std::uint64_t offset,
                  std::uint32_t len) {
  const CollectiveScope scope(comm, "broadcast");
  const Rank n = comm.size();
  for (Rank k = 1; k < n; k <<= 1) {
    for (Rank rel = 0; rel < k && rel + k < n; ++rel) {
      const Rank from = (root + rel) % n;
      const Rank to = (root + rel + k) % n;
      if (const KStatus st =
              exchange(comm, from, to, kBcastTag, offset, offset, len);
          !ok(st)) {
        return st;
      }
    }
  }
  return KStatus::Ok;
}

KStatus reduce_sum(Comm& comm, Rank root, std::uint64_t offset,
                   std::uint32_t count, std::uint64_t scratch_offset) {
  const CollectiveScope scope(comm, "reduce_sum");
  const Rank n = comm.size();
  const std::uint32_t bytes = count * 8;
  std::vector<std::uint64_t> acc(count);
  std::vector<std::uint64_t> incoming(count);

  // Reduce along a binomial tree rooted (virtually) at rank 0 in root-
  // relative coordinates: ascending round k folds rel r+k into rel r.
  auto abs_rank = [&](Rank rel) { return (root + rel) % n; };
  for (Rank k = 1; k < n; k <<= 1) {
    for (Rank rel = 0; rel + k < n; rel += 2 * k) {
      const Rank dst = abs_rank(rel);
      const Rank src = abs_rank(rel + k);
      if (const KStatus st = exchange(comm, src, dst, kReduceTag, offset,
                                      scratch_offset, bytes);
          !ok(st)) {
        return st;
      }
      // Fold at dst.
      if (const KStatus st = comm.fetch(
              dst, offset, std::as_writable_bytes(std::span{acc}));
          !ok(st)) {
        return st;
      }
      if (const KStatus st = comm.fetch(
              dst, scratch_offset, std::as_writable_bytes(std::span{incoming}));
          !ok(st)) {
        return st;
      }
      for (std::uint32_t i = 0; i < count; ++i) acc[i] += incoming[i];
      if (const KStatus st =
              comm.stage(dst, offset, std::as_bytes(std::span{acc}));
          !ok(st)) {
        return st;
      }
    }
  }
  return KStatus::Ok;
}

KStatus allreduce_sum(Comm& comm, std::uint64_t offset, std::uint32_t count,
                      std::uint64_t scratch_offset) {
  const CollectiveScope scope(comm, "allreduce_sum");
  if (const KStatus st = reduce_sum(comm, 0, offset, count, scratch_offset);
      !ok(st)) {
    return st;
  }
  return broadcast(comm, 0, offset, count * 8);
}

KStatus gather(Comm& comm, Rank root, std::uint64_t offset,
               std::uint32_t block) {
  const CollectiveScope scope(comm, "gather");
  const Rank n = comm.size();
  for (Rank r = 0; r < n; ++r) {
    if (r == root) continue;
    if (const KStatus st =
            exchange(comm, r, root, kGatherTag, offset,
                     offset + static_cast<std::uint64_t>(r) * block, block);
        !ok(st)) {
      return st;
    }
  }
  return KStatus::Ok;
}

KStatus alltoall(Comm& comm, std::uint64_t offset, std::uint32_t block,
                 std::uint64_t scratch_offset) {
  const CollectiveScope scope(comm, "alltoall");
  const Rank n = comm.size();
  // Exchanging in place would let early receives overwrite blocks their
  // owners have not shipped yet, so ship out of a per-rank snapshot.
  std::vector<std::byte> blocks(static_cast<std::size_t>(n) * block);
  for (Rank r = 0; r < n; ++r) {
    if (const KStatus st = comm.fetch(r, offset, blocks); !ok(st)) return st;
    if (const KStatus st = comm.stage(r, scratch_offset, blocks); !ok(st))
      return st;
  }
  for (Rank i = 0; i < n; ++i) {
    for (Rank j = 0; j < n; ++j) {
      if (i == j) continue;
      if (const KStatus st = exchange(
              comm, i, j, kAlltoallTag,
              scratch_offset + static_cast<std::uint64_t>(j) * block,
              offset + static_cast<std::uint64_t>(i) * block, block);
          !ok(st)) {
        return st;
      }
    }
  }
  return KStatus::Ok;
}

}  // namespace vialock::mp
