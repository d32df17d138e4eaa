// reg_cache_test.cc - registration caching: hits, idle retention, eviction
// policies and behaviour under TPT exhaustion.
#include "core/reg_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "../via/via_util.h"
#include "util/rng.h"

namespace vialock::core {
namespace {

using simkern::kPageSize;
using test::must_mmap;

struct CacheBox {
  explicit CacheBox(std::uint32_t tpt_entries = 64,
                    RegistrationCache::Config cfg = {})
      : node(test::small_node(via::PolicyKind::Kiobuf, 512, tpt_entries),
             clock, costs),
        pid(node.kernel().create_task("app")),
        vipl(node.agent(), pid) {
    EXPECT_TRUE(ok(vipl.open()));
    cache = std::make_unique<RegistrationCache>(vipl, cfg);
  }
  Clock clock;
  CostModel costs;
  via::Node node;
  simkern::Pid pid;
  via::Vipl vipl;
  std::unique_ptr<RegistrationCache> cache;
};

TEST(RegCache, MissRegistersHitReuses) {
  CacheBox box;
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle h1;
  ASSERT_TRUE(ok(box.cache->acquire(a, 4 * kPageSize, h1)));
  EXPECT_EQ(box.cache->stats().misses, 1u);
  box.cache->release(h1);
  via::MemHandle h2;
  ASSERT_TRUE(ok(box.cache->acquire(a, 4 * kPageSize, h2)));
  EXPECT_EQ(box.cache->stats().hits, 1u);
  EXPECT_EQ(h2.id, h1.id) << "same registration reused";
  EXPECT_EQ(box.cache->stats().registrations, 1u);
  box.cache->release(h2);
}

TEST(RegCache, SubRangeOfCachedRegionHits) {
  CacheBox box;
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle big;
  ASSERT_TRUE(ok(box.cache->acquire(a, 8 * kPageSize, big)));
  via::MemHandle sub;
  ASSERT_TRUE(ok(box.cache->acquire(a + kPageSize, 2 * kPageSize, sub)));
  EXPECT_EQ(box.cache->stats().hits, 1u);
  EXPECT_EQ(sub.id, big.id);
  box.cache->release(big);
  box.cache->release(sub);
  EXPECT_EQ(box.cache->idle_cached(), 1u);
}

TEST(RegCache, DisjointRangesRegisterSeparately) {
  CacheBox box;
  const auto a = must_mmap(box.node.kernel(), box.pid, 16);
  via::MemHandle h1;
  via::MemHandle h2;
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, h1)));
  ASSERT_TRUE(ok(box.cache->acquire(a + 8 * kPageSize, 2 * kPageSize, h2)));
  EXPECT_EQ(box.cache->stats().registrations, 2u);
  box.cache->release(h1);
  box.cache->release(h2);
}

TEST(RegCache, PolicyNoneDeregistersImmediately) {
  RegistrationCache::Config cfg;
  cfg.policy = EvictionPolicy::None;
  CacheBox box(64, cfg);
  const auto a = must_mmap(box.node.kernel(), box.pid, 4);
  via::MemHandle h;
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, h)));
  box.cache->release(h);
  EXPECT_EQ(box.cache->idle_cached(), 0u);
  EXPECT_EQ(box.cache->stats().deregistrations, 1u);
  EXPECT_EQ(box.node.nic().tpt().used(), 0u);
  // Next acquire is a miss again.
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, h)));
  EXPECT_EQ(box.cache->stats().misses, 2u);
  box.cache->release(h);
}

TEST(RegCache, TptPressureEvictsIdleEntries) {
  CacheBox box(/*tpt_entries=*/16);
  const auto a = must_mmap(box.node.kernel(), box.pid, 32);
  // Fill the TPT with idle cached registrations (4 x 4 pages = 16 entries).
  for (int i = 0; i < 4; ++i) {
    via::MemHandle h;
    ASSERT_TRUE(
        ok(box.cache->acquire(a + i * 4 * kPageSize, 4 * kPageSize, h)));
    box.cache->release(h);
  }
  EXPECT_EQ(box.node.nic().tpt().free_entries(), 0u);
  // A new range must evict to make room.
  via::MemHandle h;
  ASSERT_TRUE(ok(box.cache->acquire(a + 16 * kPageSize, 4 * kPageSize, h)));
  EXPECT_GE(box.cache->stats().evictions, 1u);
  box.cache->release(h);
}

TEST(RegCache, LiveEntriesAreNeverEvicted) {
  CacheBox box(/*tpt_entries=*/8);
  const auto a = must_mmap(box.node.kernel(), box.pid, 32);
  via::MemHandle live;
  ASSERT_TRUE(ok(box.cache->acquire(a, 8 * kPageSize, live)));  // fills TPT
  via::MemHandle h;
  EXPECT_EQ(box.cache->acquire(a + 16 * kPageSize, 4 * kPageSize, h),
            KStatus::NoSpc)
      << "nothing evictable: the only entry is live";
  box.cache->release(live);
}

TEST(RegCache, LruEvictsLeastRecentlyUsed) {
  CacheBox box(/*tpt_entries=*/8);
  const auto a = must_mmap(box.node.kernel(), box.pid, 32);
  via::MemHandle h1;
  via::MemHandle h2;
  ASSERT_TRUE(ok(box.cache->acquire(a, 4 * kPageSize, h1)));
  ASSERT_TRUE(ok(box.cache->acquire(a + 8 * kPageSize, 4 * kPageSize, h2)));
  box.cache->release(h1);
  box.cache->release(h2);
  // Touch h1's range so h2 becomes LRU.
  via::MemHandle tmp;
  ASSERT_TRUE(ok(box.cache->acquire(a, kPageSize, tmp)));
  box.cache->release(tmp);
  // New range forces one eviction: h2's range must go, h1's must survive.
  via::MemHandle h3;
  ASSERT_TRUE(ok(box.cache->acquire(a + 16 * kPageSize, 4 * kPageSize, h3)));
  via::MemHandle again;
  ASSERT_TRUE(ok(box.cache->acquire(a, kPageSize, again)));
  EXPECT_EQ(again.id, h1.id) << "recently-used entry survived LRU eviction";
  box.cache->release(h3);
  box.cache->release(again);
}

TEST(RegCache, FifoEvictsOldest) {
  RegistrationCache::Config cfg;
  cfg.policy = EvictionPolicy::Fifo;
  CacheBox box(/*tpt_entries=*/8, cfg);
  const auto a = must_mmap(box.node.kernel(), box.pid, 32);
  via::MemHandle h1;
  via::MemHandle h2;
  ASSERT_TRUE(ok(box.cache->acquire(a, 4 * kPageSize, h1)));
  box.cache->release(h1);
  ASSERT_TRUE(ok(box.cache->acquire(a + 8 * kPageSize, 4 * kPageSize, h2)));
  box.cache->release(h2);
  // Re-touching h1 does NOT save it under FIFO.
  via::MemHandle tmp;
  ASSERT_TRUE(ok(box.cache->acquire(a, kPageSize, tmp)));
  box.cache->release(tmp);
  via::MemHandle h3;
  ASSERT_TRUE(ok(box.cache->acquire(a + 16 * kPageSize, 4 * kPageSize, h3)));
  via::MemHandle probe;
  ASSERT_TRUE(ok(box.cache->acquire(a + 8 * kPageSize, kPageSize, probe)));
  EXPECT_EQ(probe.id, h2.id) << "second-registered entry should have survived";
  box.cache->release(h3);
  box.cache->release(probe);
}

TEST(RegCache, FlushDropsIdleKeepsLive) {
  CacheBox box;
  const auto a = must_mmap(box.node.kernel(), box.pid, 16);
  via::MemHandle live;
  via::MemHandle idle;
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, live)));
  ASSERT_TRUE(ok(box.cache->acquire(a + 8 * kPageSize, 2 * kPageSize, idle)));
  box.cache->release(idle);
  box.cache->flush();
  EXPECT_EQ(box.cache->live(), 1u);
  EXPECT_EQ(box.cache->idle_cached(), 0u);
  box.cache->release(live);
}

TEST(RegCache, MaxIdleCapEnforced) {
  RegistrationCache::Config cfg;
  cfg.max_idle = 2;
  CacheBox box(/*tpt_entries=*/64, cfg);
  const auto a = must_mmap(box.node.kernel(), box.pid, 32);
  for (int i = 0; i < 5; ++i) {
    via::MemHandle h;
    ASSERT_TRUE(ok(box.cache->acquire(a + i * 4 * kPageSize, kPageSize, h)));
    box.cache->release(h);
  }
  EXPECT_LE(box.cache->idle_cached(), 2u);
}

TEST(RegCache, ReleaseUnknownHandleIsCountedNoOp) {
  // The seed guarded release() with assert only: an NDEBUG build dereferenced
  // entries_.end() on an unknown handle. Now a counted, safe no-op in every
  // build type (the Release-mode CI job runs this with the asserts gone).
  CacheBox box;
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle h;
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, h)));
  via::MemHandle bogus = h;
  bogus.id = 9999;
  box.cache->release(bogus);
  EXPECT_EQ(box.cache->stats().bad_releases, 1u);
  EXPECT_EQ(box.cache->live(), 1u);
  EXPECT_EQ(box.cache->idle_cached(), 0u) << "the live entry must be intact";
  box.cache->release(h);
  EXPECT_EQ(box.cache->idle_cached(), 1u);
  EXPECT_EQ(box.cache->stats().bad_releases, 1u);
}

TEST(RegCache, DoubleReleaseDoesNotUnderflowRefcount) {
  // Seed: the second release of an already-idle entry underflowed refs to
  // ~4 billion under NDEBUG, making the entry unevictable forever.
  CacheBox box;
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle h;
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, h)));
  box.cache->release(h);
  box.cache->release(h);  // caller bug: handle already returned
  EXPECT_EQ(box.cache->stats().bad_releases, 1u);
  EXPECT_EQ(box.cache->idle_cached(), 1u);
  // The entry is still a well-formed idle entry: it hits and re-idles.
  via::MemHandle again;
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, again)));
  EXPECT_EQ(again.id, h.id);
  EXPECT_EQ(box.cache->idle_cached(), 0u);
  box.cache->release(again);
  EXPECT_EQ(box.cache->idle_cached(), 1u);
}

TEST(RegCache, ReleaseAfterEvictionIsCountedNoOp) {
  RegistrationCache::Config cfg;
  cfg.max_idle = 0;  // every released entry is evicted immediately
  CacheBox box(/*tpt_entries=*/64, cfg);
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle h;
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, h)));
  box.cache->release(h);
  EXPECT_EQ(box.cache->live(), 0u);
  box.cache->release(h);  // stale handle: its entry was evicted above
  EXPECT_EQ(box.cache->stats().bad_releases, 1u);
}

// Reference model replaying the seed's linear-scan cache semantics: covering
// lookup as an id-ordered scan over every entry, LRU eviction as a min over
// all idle entries. The indexed cache must make bit-identical decisions -
// same handle ids, same hit/miss/eviction stats - on a random stream.
class LinearCacheModel {
 public:
  explicit LinearCacheModel(std::size_t max_idle) : max_idle_(max_idle) {}

  // Returns the handle id the real cache must hand out.
  std::uint64_t acquire(simkern::VAddr addr, std::uint64_t len) {
    ++tick_;
    for (auto& [id, e] : entries_) {  // id order, exactly the seed's scan
      if (addr >= e.vaddr && addr + len <= e.vaddr + e.len) {
        ++hits;
        ++e.refs;
        e.last_use = tick_;
        return id;
      }
    }
    ++misses;
    const std::uint64_t id = next_id_++;
    entries_[id] = {addr, len, 1, tick_};
    return id;
  }

  void release(std::uint64_t id) {
    ++tick_;
    auto& e = entries_.at(id);
    e.last_use = tick_;
    if (--e.refs == 0) enforce_idle_cap();
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

 private:
  struct Entry {
    simkern::VAddr vaddr = 0;
    std::uint64_t len = 0;
    std::uint32_t refs = 0;
    std::uint64_t last_use = 0;
  };

  void enforce_idle_cap() {
    for (;;) {
      std::uint64_t victim = 0;
      std::uint64_t best_use = 0;
      std::size_t idle = 0;
      for (const auto& [id, e] : entries_) {
        if (e.refs != 0) continue;
        ++idle;
        if (victim == 0 || e.last_use < best_use) {
          victim = id;
          best_use = e.last_use;
        }
      }
      if (idle <= max_idle_) return;
      entries_.erase(victim);
      ++evictions;
    }
  }

  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t next_id_ = 1;  // KernelAgent hands out ids from 1
  std::uint64_t tick_ = 0;
  std::size_t max_idle_;
};

TEST(RegCache, IndexedLookupMatchesLinearScanOnRandomStream) {
  RegistrationCache::Config cfg;
  cfg.max_idle = 6;  // small cap so evictions churn the index constantly
  CacheBox box(/*tpt_entries=*/2048, cfg);
  LinearCacheModel model(cfg.max_idle);
  const auto base = must_mmap(box.node.kernel(), box.pid, 64);
  Rng rng(0x1d5eedULL);

  struct Live {
    via::MemHandle handle;
    std::uint64_t model_id;
  };
  std::vector<Live> live;

  for (int step = 0; step < 3000; ++step) {
    // Cap outstanding handles so the kernel pin budget is never hit: the
    // model replays idle-cap evictions only, not pressure evictions.
    const bool do_acquire =
        live.empty() || (live.size() < 48 && rng.below(100) < 55);
    if (do_acquire) {
      const std::uint64_t page = rng.below(60);
      const std::uint64_t pages = 1 + rng.below(4);
      const auto addr = base + page * kPageSize;
      const auto len = pages * kPageSize;
      via::MemHandle h;
      ASSERT_TRUE(ok(box.cache->acquire(addr, len, h))) << "step " << step;
      const std::uint64_t want = model.acquire(addr, len);
      ASSERT_EQ(h.id, want) << "index diverged from linear scan at " << step;
      live.push_back({h, want});
    } else {
      const std::size_t pick = rng.below(live.size());
      const Live l = live[pick];
      live[pick] = live.back();
      live.pop_back();
      box.cache->release(l.handle);
      model.release(l.model_id);
    }
    ASSERT_EQ(box.cache->stats().hits, model.hits) << "step " << step;
    ASSERT_EQ(box.cache->stats().misses, model.misses) << "step " << step;
    ASSERT_EQ(box.cache->stats().evictions, model.evictions)
        << "step " << step;
  }
  EXPECT_EQ(box.cache->stats().bad_releases, 0u);
  EXPECT_GT(model.hits, 0u);
  EXPECT_GT(model.evictions, 0u);
}

TEST(RegCache, ReacquireAfterEvictionRegistersAnew) {
  // An evicted entry's handle is deregistered and its TPT range released (or
  // already reused by a different registration). A cache that kept serving
  // it would hand out a dead handle: silent wrong-memory DMA. Reacquiring the
  // same range must register it afresh.
  RegistrationCache::Config cfg;
  cfg.max_idle = 0;  // every release evicts
  CacheBox box(/*tpt_entries=*/64, cfg);
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle h1;
  ASSERT_TRUE(ok(box.cache->acquire(a, 4 * kPageSize, h1)));
  box.cache->release(h1);  // evicted + deregistered
  EXPECT_EQ(box.cache->live(), 0u);

  via::MemHandle h2;
  ASSERT_TRUE(ok(box.cache->acquire(a, 4 * kPageSize, h2)));
  EXPECT_EQ(box.cache->stats().registrations, 2u);
  EXPECT_NE(h2.id, h1.id) << "fresh registration, not the dead handle";
  EXPECT_TRUE(h2.valid());
  box.cache->release(h2);
}

TEST(RegCache, InsertOfAnotherRangeStillHitsLiveEntry) {
  // Inserting a different range ahead of a live entry shifts rows_; the
  // repeat acquire must still find the right entry (same id).
  CacheBox box;
  const auto a = must_mmap(box.node.kernel(), box.pid, 16);
  via::MemHandle h1;
  ASSERT_TRUE(ok(box.cache->acquire(a + 8 * kPageSize, 2 * kPageSize, h1)));
  via::MemHandle other;
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, other)));  // rows_ shifts

  via::MemHandle h2;
  ASSERT_TRUE(ok(box.cache->acquire(a + 8 * kPageSize, 2 * kPageSize, h2)));
  EXPECT_EQ(h2.id, h1.id) << "the index hit must find the live entry";
  EXPECT_EQ(box.cache->stats().hits, 1u);

  via::MemHandle h3;
  ASSERT_TRUE(ok(box.cache->acquire(a + 8 * kPageSize, 2 * kPageSize, h3)));
  EXPECT_EQ(box.cache->stats().hits, 2u);
  EXPECT_EQ(h3.id, h1.id);
  box.cache->release(h1);
  box.cache->release(h2);
  box.cache->release(h3);
  box.cache->release(other);
}

TEST(RegCache, ReleaseMatchesVaddrAndId) {
  // release() identifies the registration by (vaddr, id), the key of its
  // row. A handle that matches a live entry on one half only is a caller
  // bug: counted and refused, the live entry untouched.
  CacheBox box;
  const auto a = must_mmap(box.node.kernel(), box.pid, 16);
  via::MemHandle h;
  ASSERT_TRUE(ok(box.cache->acquire(a, 2 * kPageSize, h)));
  via::MemHandle other;
  ASSERT_TRUE(ok(box.cache->acquire(a + 8 * kPageSize, 2 * kPageSize, other)));

  via::MemHandle wrong_vaddr = h;
  wrong_vaddr.vaddr = other.vaddr;  // a live vaddr, but not h's
  box.cache->release(wrong_vaddr);
  EXPECT_EQ(box.cache->stats().bad_releases, 1u);
  EXPECT_EQ(box.cache->live(), 2u);
  EXPECT_EQ(box.cache->idle_cached(), 0u);

  via::MemHandle unknown_id = h;
  unknown_id.id = 9999;  // h's live vaddr, an id the cache never issued
  box.cache->release(unknown_id);
  EXPECT_EQ(box.cache->stats().bad_releases, 2u);
  EXPECT_EQ(box.cache->live(), 2u);
  EXPECT_EQ(box.cache->idle_cached(), 0u);

  // Both entries still hold exactly their one reference.
  box.cache->release(h);
  box.cache->release(other);
  EXPECT_EQ(box.cache->idle_cached(), 2u);
  EXPECT_EQ(box.cache->stats().bad_releases, 2u);
}

TEST(RegCache, RefcountedAcquireReleaseBalance) {
  CacheBox box;
  const auto a = must_mmap(box.node.kernel(), box.pid, 8);
  via::MemHandle h1;
  via::MemHandle h2;
  ASSERT_TRUE(ok(box.cache->acquire(a, 4 * kPageSize, h1)));
  ASSERT_TRUE(ok(box.cache->acquire(a, 4 * kPageSize, h2)));  // hit, refs=2
  box.cache->release(h1);
  // Still live: not evictable, not idle.
  EXPECT_EQ(box.cache->idle_cached(), 0u);
  box.cache->release(h2);
  EXPECT_EQ(box.cache->idle_cached(), 1u);
}

}  // namespace
}  // namespace vialock::core
