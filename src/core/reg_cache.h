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
// The cache is dual-keyed (DESIGN.md section 9): `entries_` owns the
// registrations keyed by id (the release/evict handle path), and a flat
// vaddr-sorted interval index serves the covering lookup on the acquire hot
// path - a binary search plus a short backward walk bounded by the largest
// cached registration, instead of the seed's scan of every entry. An ordered
// idle index keyed by the eviction policy's key makes victim selection and
// the idle count O(log n)/O(1). E22 measures the scaling win.
//
// When a PinGovernor is passed in Config, the cache registers itself as a
// ReclaimClient: under memory pressure (or a guaranteed tenant's admission
// shortfall) the governor asks it to evict cold idle entries, releasing
// pinned pages cooperatively before the kernel has to swap hot ones.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
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
  std::uint64_t lookaside_hits = 0;    ///< acquire served by the lookaside
                                       ///< (zero index scans)
  std::uint64_t lookaside_misses = 0;  ///< acquire fell through to the
                                       ///< dual-keyed index
  std::uint64_t lookaside_invalidations = 0;  ///< generation bumps (every
                                              ///< structural change)
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
  /// know, or one whose entry is already idle, is a counted no-op
  /// (stats().bad_releases) - never an underflow or a wild dereference.
  void release(const via::MemHandle& handle);

  /// Deregister every idle cached entry.
  void flush();

  [[nodiscard]] const RegCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t idle_cached() const { return idle_.size(); }
  [[nodiscard]] std::size_t live() const { return rows_.size(); }

 private:
  /// One cached registration, stored *inline* in the vaddr-sorted interval
  /// index. The acquire hit path therefore touches exactly two arrays - the
  /// packed key vector it binary-searched and the row it lands on - and never
  /// chases a node of the id map (whose scattered nodes would cost a cache
  /// miss per lookup once thousands of registrations are cached).
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

  /// Evict one idle entry per policy; returns the pages it released
  /// (0 when nothing is evictable).
  std::uint32_t evict_one();
  void enforce_idle_cap();

  /// Index of the row holding registration (vaddr, id); rows_.size() if
  /// absent. O(log n) over the packed keys.
  [[nodiscard]] std::size_t row_of(simkern::VAddr vaddr,
                                   std::uint64_t id) const;

  // --- per-VI lookaside ------------------------------------------------------
  // A direct-mapped cache keyed on the exact (addr, len) of recent acquires,
  // sitting in front of the dual-keyed index: a hit touches one slot and one
  // row - zero key scans. Stored row indexes are only trusted while `gen`
  // equals generation_, which insert_entry/erase_entry bump on EVERY
  // structural change (both shift rows_). While the generation matches, the
  // entry set is unchanged, so find_covering(addr, len) would return exactly
  // the row recorded at fill time - an eviction, deregistration, or
  // refresh-relocation can therefore never serve a stale TPT index through
  // the lookaside (DESIGN.md section 14.3; debug builds assert equivalence).
  struct LookasideSlot {
    simkern::VAddr addr = 0;
    std::uint64_t len = 0;
    std::uint32_t row = 0;
    std::uint64_t gen = 0;  ///< valid iff == generation_
  };
  static constexpr std::size_t kLookasideSlots = 64;
  [[nodiscard]] static std::size_t lookaside_slot(simkern::VAddr addr,
                                                  std::uint64_t len) {
    // SplitMix64-style mix of the exact request key.
    std::uint64_t h = addr ^ (len * 0x9E3779B97F4A7C15ULL);
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    return static_cast<std::size_t>(h % kLookasideSlots);
  }
  void lookaside_fill(simkern::VAddr addr, std::uint64_t len, std::size_t row);
  void lookaside_invalidate_all() {
    ++generation_;
    ++stats_.lookaside_invalidations;
  }
  /// Rebuild tops_ from keys_ (O(n/64); runs on the insert/erase slow path).
  void rebuild_tops();
  void insert_entry(Entry&& e);
  /// Deregister and drop `it`'s registration from every index.
  /// Invalidates `it` and every row index/reference.
  void erase_entry(std::map<std::uint64_t, simkern::VAddr>::iterator it);

  via::Vipl& vipl_;
  Config config_;
  RegCacheStats stats_;
  /// Acquire latency distribution (hits are cheap, misses pay an ioctl).
  obs::Histogram& acquire_ns_;
  /// The metric source name this cache registered (pid-suffixed so two
  /// processes' caches on one node do not collide; two caches of one pid
  /// still do, and the newer one takes the name over).
  std::string source_name_;
  std::string proc_path_;
  /// The owning interval index: sorted by (vaddr, id). Flat for lookup
  /// locality; insert and erase are O(n) moves but only run on the
  /// miss/evict slow path.
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
  /// id -> vaddr, the release/evict/flush handle path (those arrive with an
  /// id, not a position). Iterated in id order by flush().
  std::map<std::uint64_t, simkern::VAddr> ids_;
  /// Lengths of all cached registrations; the max bounds the covering walk.
  std::multiset<std::uint64_t> lengths_;
  std::uint64_t max_len_ = 0;  ///< cached *lengths_.rbegin() (hot-path copy)
  /// Idle (refs == 0) entries keyed by eviction key: begin() is the victim.
  std::map<std::uint64_t, std::uint64_t> idle_;  ///< evict key -> id
  std::uint64_t tick_ = 0;
  std::uint64_t seq_ = 0;
  std::array<LookasideSlot, kLookasideSlots> lookaside_{};
  std::uint64_t generation_ = 1;  ///< starts above LookasideSlot::gen's 0
};

}  // namespace vialock::core
