#include "core/reg_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace vialock::core {

RegistrationCache::RegistrationCache(via::Vipl& vipl, Config config)
    : vipl_(vipl),
      config_(config),
      acquire_ns_(vipl.agent().kern().metrics().histogram(
          "core.regcache.acquire_ns")),
      source_name_("core.regcache.p" + std::to_string(vipl.pid())) {
  if (config_.governor) config_.governor->add_reclaim_client(this);
  simkern::Kernel& kern = vipl_.agent().kern();
  kern.metrics().register_source(source_name_, this, [this](obs::MetricSink& s) {
    s.counter("hits", stats_.hits);
    s.counter("misses", stats_.misses);
    s.counter("evictions", stats_.evictions);
    s.counter("registrations", stats_.registrations);
    s.counter("deregistrations", stats_.deregistrations);
    s.counter("reclaim_evictions", stats_.reclaim_evictions);
    s.counter("bad_releases", stats_.bad_releases);
    s.gauge("idle", idle_);
    s.gauge("live", rows_.size());
  });
}

RegistrationCache::~RegistrationCache() {
  flush();
  if (config_.governor) config_.governor->remove_reclaim_client(this);
  simkern::Kernel& kern = vipl_.agent().kern();
  kern.metrics().unregister_source(source_name_, this);
}
namespace {

/// 64 keys (512 bytes, 8 cache lines) per sampled block of the key array.
constexpr std::size_t kBlockShift = 6;
constexpr std::size_t kBlock = std::size_t{1} << kBlockShift;

/// Padding sentinel for the key and block-top arrays. Compares greater than
/// any real vaddr (the simulated address space is 2^46), so padded slots
/// never count toward an upper bound.
constexpr simkern::VAddr kPad = ~simkern::VAddr{0};

/// keys_/tops_ are padded to this length so fixed-width scans never read
/// past the fill.
constexpr std::size_t padded(std::size_t n) {
  return (n + kBlock - 1) & ~(kBlock - 1);
}

/// Number of keys in [base, base+n) that are <= addr, i.e. the upper-bound
/// index. Branch-free: the half-step is applied through a mask (neg/and/add,
/// which the compiler cannot turn back into a jump - a plain ternary here
/// compiles to a branch). On a random access stream every probe of a
/// conventional binary search is a coin-flip branch, and the mispredict
/// penalty - not the loads - is what otherwise grows with log n.
std::size_t upper_idx(const simkern::VAddr* base, std::size_t n,
                      simkern::VAddr addr) {
  const simkern::VAddr* p = base;
  while (n > 1) {
    const std::size_t half = n / 2;
    p += (std::size_t{0} - static_cast<std::size_t>(p[half - 1] <= addr)) &
         half;
    n -= half;
  }
  return static_cast<std::size_t>(p - base) +
         static_cast<std::size_t>(*p <= addr);
}

/// Upper-bound offset within one kBlock-wide (sentinel-padded) sorted block:
/// the count of keys <= addr. A counting scan, not a binary search - the 64
/// contiguous loads are independent (the hardware fetches all eight cache
/// lines in parallel) and the four accumulators let the compare-accumulate
/// pipeline, where a binary search would serialise six dependent probes.
/// The trip count is a compile-time constant: the scan always covers the
/// full padded block, so it carries no data-dependent branch at all and its
/// cost does not drift with occupancy.
std::size_t upper_idx_block(const simkern::VAddr* base, simkern::VAddr addr) {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  for (std::size_t j = 0; j < kBlock; j += 4) {
    c0 += static_cast<std::size_t>(base[j] <= addr);
    c1 += static_cast<std::size_t>(base[j + 1] <= addr);
    c2 += static_cast<std::size_t>(base[j + 2] <= addr);
    c3 += static_cast<std::size_t>(base[j + 3] <= addr);
  }
  return c0 + c1 + c2 + c3;
}

}  // namespace

RegistrationCache::Entry* RegistrationCache::find_covering(simkern::VAddr addr,
                                                           std::uint64_t len) {
  if (rows_.empty()) return nullptr;
  // No cached registration is longer than max_len_, so any covering entry
  // starts in (addr - max_len_, addr]: find the first key past addr, then
  // walk backwards through that window only. The search is two-level: the
  // block-top sample (tops_) stays cache-hot at any size and narrows the
  // probe to one 512-byte block of keys_, so the memory the lookup can miss
  // on stays O(1) as the cache grows from dozens to thousands of entries.
  // Up to kBlock^2 (4096) entries both levels are fixed-width counting
  // scans with no serial dependency and no data-dependent branching; past
  // that the top level falls back to the branch-free binary search.
  const std::size_t n = rows_.size();
  const std::size_t nblocks = (n + kBlock - 1) >> kBlockShift;
  const std::size_t b = nblocks <= kBlock
                            ? upper_idx_block(tops_.data(), addr)
                            : upper_idx(tops_.data(), nblocks, addr);
  std::size_t i;
  if (b >= nblocks) {
    i = n;  // every cached start is <= addr
  } else {
    const std::size_t lo = b << kBlockShift;
    i = lo + upper_idx_block(keys_.data() + lo, addr);
  }
  Entry* best = nullptr;
  while (i > 0) {
    Entry& r = rows_[--i];
    if (addr - r.handle.vaddr >= max_len_)
      break;  // nothing earlier can reach addr
    if (addr + len <= r.handle.vaddr + r.handle.length &&
        (best == nullptr || r.handle.id < best->handle.id)) {
      // Smallest covering id: exactly the entry the seed's id-ordered linear
      // scan returned, so hit/evict behaviour is bit-identical (the E22
      // differential test holds the cache to this).
      best = &r;
    }
  }
  return best;
}

std::size_t RegistrationCache::row_of(simkern::VAddr vaddr,
                                      std::uint64_t id) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), vaddr);
  for (std::size_t i = static_cast<std::size_t>(it - keys_.begin());
       i < rows_.size() && rows_[i].handle.vaddr == vaddr; ++i) {
    if (rows_[i].handle.id == id) return i;
  }
  return rows_.size();
}

void RegistrationCache::rebuild_tops() {
  // Re-pad both scan arrays: keys_ to a whole number of blocks, tops_ to at
  // least one full block, sentinel-filled past the live prefix, so the
  // fixed-width lookup scans never read uninitialised slots.
  const std::size_t n = rows_.size();
  keys_.resize(padded(n), kPad);
  const std::size_t blocks = (n + kBlock - 1) >> kBlockShift;
  tops_.assign(std::max(padded(blocks), kBlock), kPad);
  for (std::size_t b = 0; b < blocks; ++b)
    tops_[b] = keys_[std::min((b + 1) << kBlockShift, n) - 1];
}

void RegistrationCache::insert_entry(Entry&& e) {
  const auto pos =
      std::lower_bound(rows_.begin(), rows_.end(), e) - rows_.begin();
  max_len_ = std::max(max_len_, e.handle.length);
  keys_.insert(keys_.begin() + pos, e.handle.vaddr);
  rows_.insert(rows_.begin() + pos, std::move(e));
  rebuild_tops();
}

void RegistrationCache::erase_entry(std::size_t pos) {
  assert(pos < rows_.size());
  const via::MemHandle handle = rows_[pos].handle;
  if (rows_[pos].refs == 0) --idle_;
  (void)vipl_.deregister_mem(handle);
  ++stats_.deregistrations;
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(pos));
  keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(pos));
  rebuild_tops();
  if (handle.length == max_len_) {
    max_len_ = 0;
    for (const Entry& r : rows_) max_len_ = std::max(max_len_, r.handle.length);
  }
}

KStatus RegistrationCache::acquire(simkern::VAddr addr, std::uint64_t len,
                                   via::MemHandle& out) {
  if (len == 0) return KStatus::Inval;
  const VirtualStopwatch sw(vipl_.agent().kern().clock());
  const auto charge = [&](KStatus st) {
    acquire_ns_.add(sw.elapsed());
    return st;
  };
  ++tick_;
  if (Entry* e = find_covering(addr, len)) {
    ++stats_.hits;
    if (e->refs == 0) --idle_;
    ++e->refs;
    e->last_use = tick_;
    out = e->handle;
    return charge(KStatus::Ok);
  }

  ++stats_.misses;
  // Register the exact (page-spanned) range. Retry under TPT pressure after
  // evicting idle cached registrations.
  for (;;) {
    via::MemHandle handle;
    const KStatus st = vipl_.register_mem(addr, len, handle);
    if (ok(st)) {
      ++stats_.registrations;
      Entry e;
      e.handle = handle;
      e.refs = 1;
      e.last_use = tick_;
      e.seq = ++seq_;
      insert_entry(std::move(e));
      out = handle;
      return charge(KStatus::Ok);
    }
    // NoSpc: TPT entries exhausted. Again: the kernel's pin budget (or the
    // governor's host ceiling) is hit. NoMem: the governor's per-tenant
    // quota. All are relieved by evicting idle cached registrations.
    if (st != KStatus::NoSpc && st != KStatus::Again && st != KStatus::NoMem)
      return charge(st);
    if (evict_one() == 0) return charge(st);
  }
}

void RegistrationCache::release(const via::MemHandle& handle) {
  const std::size_t pos = row_of(handle.vaddr, handle.id);
  if (pos >= rows_.size() || rows_[pos].refs == 0) {
    // Unknown handle, or an entry already idle (double release). The seed
    // guarded these with assert only: an NDEBUG build dereferenced end() /
    // underflowed the refcount and corrupted the cache. Count and refuse.
    ++stats_.bad_releases;
    return;
  }
  ++tick_;
  Entry& e = rows_[pos];
  e.last_use = tick_;
  if (--e.refs == 0) {
    ++idle_;
    if (config_.policy == EvictionPolicy::None) {
      erase_entry(pos);
    } else {
      enforce_idle_cap();
    }
  }
}

std::uint32_t RegistrationCache::evict_one() {
  // The victim is the least-recently-used (LRU) or oldest (FIFO) idle entry:
  // the smallest eviction key, which is unique per entry.
  if (idle_ == 0) return 0;
  std::size_t victim = rows_.size();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].refs == 0 &&
        (victim == rows_.size() ||
         evict_key(rows_[i]) < evict_key(rows_[victim])))
      victim = i;
  }
  assert(victim < rows_.size());
  const std::uint32_t pages = rows_[victim].handle.pages;
  ++stats_.evictions;
  erase_entry(victim);
  return pages;
}

std::uint32_t RegistrationCache::reclaim_idle(std::uint32_t target_pages) {
  std::uint32_t released = 0;
  while (released < target_pages) {
    const std::uint32_t pages = evict_one();
    if (pages == 0) break;
    ++stats_.reclaim_evictions;
    released += pages;
  }
  return released;
}

void RegistrationCache::enforce_idle_cap() {
  while (idle_cached() > config_.max_idle) {
    if (evict_one() == 0) break;
  }
}

void RegistrationCache::flush() {
  // Id order, as the seed iterated its id-keyed map: dereg order (and with
  // it the TPT free-extent pattern and trace stream) stays bit-identical.
  std::vector<std::pair<std::uint64_t, simkern::VAddr>> idle;
  idle.reserve(idle_);
  for (const Entry& e : rows_)
    if (e.refs == 0) idle.emplace_back(e.handle.id, e.handle.vaddr);
  std::sort(idle.begin(), idle.end());
  for (const auto& [id, vaddr] : idle) erase_entry(row_of(vaddr, id));
}

}  // namespace vialock::core
