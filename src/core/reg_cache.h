// reg_cache.h - registration caching for dynamic zero-copy protocols.
//
// The paper's introduction: dynamic registration is unavoidable for zero-copy
// MPI ("the buffers must be registered on the fly... the bad effects can be
// remedied by 'caching' registered regions, i.e. by keeping them registered
// as long as possible"). RegistrationCache implements exactly that over the
// VIPL: acquire() reuses a live or idle cached registration that covers the
// request; release() keeps idle registrations cached; TPT exhaustion evicts
// idle entries by a pluggable policy (the E9 ablation).
//
// Every cached registration lives in one place: a flat vaddr-sorted row
// array (DESIGN.md section 9). The covering lookup on the acquire hot path is
// a search over a dense mirror of its keys plus a short backward walk bounded
// by the largest cached registration, instead of the seed's scan of every
// entry. Release, eviction and flush find their row by (vaddr, id) or by a
// scan on the miss/evict path, which already pays an O(n) row move. E22
// measures the scaling win.
//
// When a PinGovernor is passed in Config, the cache registers itself as a
// ReclaimClient: under memory pressure (or a guaranteed tenant's admission
// shortfall) the governor asks it to evict cold idle entries, releasing
// pinned pages cooperatively before the kernel has to swap hot ones.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pinmgr/pin_governor.h"
#include "util/status.h"
#include "via/vipl.h"

namespace vialock::core {

enum class EvictionPolicy : std::uint8_t {
  None,  ///< never cache: deregister as soon as the last user releases
  Lru,   ///< evict the least recently used idle registration
  Fifo,  ///< evict the oldest idle registration
};

[[nodiscard]] constexpr std::string_view to_string(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::None: return "none";
    case EvictionPolicy::Lru: return "LRU";
    case EvictionPolicy::Fifo: return "FIFO";
  }
  return "?";
}

struct RegCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t registrations = 0;
  std::uint64_t deregistrations = 0;
  std::uint64_t reclaim_evictions = 0;  ///< evictions the governor asked for
  std::uint64_t bad_releases = 0;  ///< release() of an unknown handle or an
                                   ///< already-idle entry (caller bug, kept
                                   ///< a safe no-op - never corrupts the
                                   ///< cache, in any build type)
};

class RegistrationCache : public pinmgr::ReclaimClient {
 public:
  struct Config {
    EvictionPolicy policy = EvictionPolicy::Lru;
    /// Cap on idle cached registrations (on top of TPT pressure eviction).
    std::size_t max_idle = 1024;
    /// When set, the cache volunteers its idle entries for cooperative
    /// reclaim. The governor must outlive the cache.
    pinmgr::PinGovernor* governor = nullptr;
  };

  explicit RegistrationCache(via::Vipl& vipl)
      : RegistrationCache(vipl, Config{}) {}
  /// Registers the cache's stats with the node kernel's metric registry
  /// (source "core.regcache.p<pid>").
  RegistrationCache(via::Vipl& vipl, Config config);

  RegistrationCache(const RegistrationCache&) = delete;
  RegistrationCache& operator=(const RegistrationCache&) = delete;
  ~RegistrationCache() override;

  /// ReclaimClient: evict cold idle entries until `target_pages` pinned
  /// pages are released (or nothing idle remains). Returns pages released.
  std::uint32_t reclaim_idle(std::uint32_t target_pages) override;

  /// Hand out a registration covering [addr, addr+len), registering on miss.
  /// Evicts idle entries and retries when the TPT is full.
  [[nodiscard]] KStatus acquire(simkern::VAddr addr, std::uint64_t len,
                                via::MemHandle& out);

  /// Return a handle obtained from acquire(). The registration stays cached
  /// (policy != None) until evicted. Releasing a handle the cache does not
  /// know by its (vaddr, id), or one whose entry is already idle, is a
  /// counted no-op (stats().bad_releases) - never an underflow or a wild
  /// dereference.
  void release(const via::MemHandle& handle);

  /// Deregister every idle cached entry.
  void flush();

  [[nodiscard]] const RegCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t idle_cached() const { return idle_; }
  [[nodiscard]] std::size_t live() const { return rows_.size(); }

 private:
  /// One cached registration, stored *inline* in the vaddr-sorted row
  /// array. The acquire hit path therefore touches exactly two arrays - the
  /// packed key vector it searched and the row it lands on.
  struct Entry {
    via::MemHandle handle;
    std::uint32_t refs = 0;
    std::uint64_t last_use = 0;  ///< LRU tick
    std::uint64_t seq = 0;       ///< FIFO sequence

    [[nodiscard]] bool operator<(const Entry& o) const {
      return handle.vaddr != o.handle.vaddr ? handle.vaddr < o.handle.vaddr
                                            : handle.id < o.handle.id;
    }
  };

  /// The cached entry covering [addr, addr+len) with the smallest id (the
  /// entry the seed's id-ordered linear scan would return), or nullptr.
  /// Binary search on the packed keys, then a backward walk bounded by the
  /// largest cached registration length.
  [[nodiscard]] Entry* find_covering(simkern::VAddr addr, std::uint64_t len);

  /// The eviction key of `e` under the configured policy (FIFO: insertion
  /// sequence; LRU: last-use tick). Unique per entry: ticks and sequence
  /// numbers are handed out once.
  [[nodiscard]] std::uint64_t evict_key(const Entry& e) const {
    return config_.policy == EvictionPolicy::Fifo ? e.seq : e.last_use;
  }

  /// Evict the idle entry with the smallest evict_key (a scan of rows_);
  /// returns the pages it released (0 when nothing is evictable).
  std::uint32_t evict_one();
  void enforce_idle_cap();

  /// Index of the row holding registration (vaddr, id); rows_.size() if
  /// absent. O(log n) over the packed keys.
  [[nodiscard]] std::size_t row_of(simkern::VAddr vaddr,
                                   std::uint64_t id) const;

  /// Rebuild tops_ from keys_ (O(n/64); runs on the insert/erase slow path).
  void rebuild_tops();
  void insert_entry(Entry&& e);
  /// Deregister and drop the registration in row `pos`. Invalidates every
  /// row index and reference.
  void erase_entry(std::size_t pos);

  via::Vipl& vipl_;
  Config config_;
  RegCacheStats stats_;
  /// Acquire latency distribution (hits are cheap, misses pay an ioctl).
  obs::Histogram& acquire_ns_;
  /// The metric source name this cache registered (pid-suffixed so two
  /// processes' caches on one node do not collide; two caches of one pid
  /// still do, and the newer one takes the name over).
  std::string source_name_;
  /// The only record of cached registrations, sorted by (vaddr, id). Flat
  /// for lookup locality; insert and erase are O(n) moves but only run on
  /// the miss/evict slow path.
  std::vector<Entry> rows_;
  /// rows_[i].handle.vaddr, duplicated densely and sentinel-padded to a
  /// whole number of 64-key blocks: the lookup probes only these 8-byte
  /// keys, so even a 4096-entry search stays inside a few KB of cache
  /// instead of striding over full rows.
  std::vector<simkern::VAddr> keys_;
  /// The last key of each 64-key block of keys_, sentinel-padded to a full
  /// block: the covering lookup scans this sample (512 bytes, always
  /// cache-hot) and then one 512-byte block of keys_ - two fixed-width
  /// branch-free scans, so lookup cost stays essentially flat as the cache
  /// grows from dozens to thousands of entries. See find_covering.
  std::vector<simkern::VAddr> tops_;
  /// Largest cached registration length: bounds the covering walk. A
  /// running max on insert, rescanned when an erase removes the maximum.
  std::uint64_t max_len_ = 0;
  std::size_t idle_ = 0;  ///< rows with refs == 0
  std::uint64_t tick_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace vialock::core
