// fault_engine_test.cc - trigger matching and determinism of the fault engine.

#include "fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace vialock::fault {
namespace {

TEST(FaultEngine, SiteFilterOnlyMatchesItsSite) {
  Clock clock;
  FaultPlan plan;
  plan.add({.site = FaultSite::Wire, .action = FaultAction::Drop});
  FaultEngine eng(plan, clock);

  EXPECT_FALSE(eng.check(FaultSite::SwapRead).has_value());
  EXPECT_FALSE(eng.check(FaultSite::NicDoorbell).has_value());
  const auto d = eng.check(FaultSite::Wire);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->action, FaultAction::Drop);
  EXPECT_EQ(eng.stats().seen(FaultSite::SwapRead), 1u);
  EXPECT_EQ(eng.stats().injected(FaultSite::SwapRead), 0u);
  EXPECT_EQ(eng.stats().injected(FaultSite::Wire), 1u);
}

TEST(FaultEngine, AfterEventsSkipsTheFirstN) {
  Clock clock;
  FaultPlan plan;
  plan.add({.site = FaultSite::SwapWrite,
            .action = FaultAction::Fail,
            .after_events = 3});
  FaultEngine eng(plan, clock);

  for (int i = 0; i < 3; ++i)
    EXPECT_FALSE(eng.check(FaultSite::SwapWrite).has_value()) << i;
  EXPECT_TRUE(eng.check(FaultSite::SwapWrite).has_value());
}

TEST(FaultEngine, MaxTriggersBoundsTheRule) {
  Clock clock;
  FaultPlan plan;
  plan.add({.site = FaultSite::BuddyAlloc,
            .action = FaultAction::Fail,
            .max_triggers = 2});
  FaultEngine eng(plan, clock);

  EXPECT_TRUE(eng.check(FaultSite::BuddyAlloc).has_value());
  EXPECT_TRUE(eng.check(FaultSite::BuddyAlloc).has_value());
  EXPECT_FALSE(eng.check(FaultSite::BuddyAlloc).has_value());
  EXPECT_EQ(eng.stats().injected(FaultSite::BuddyAlloc), 2u);
  EXPECT_EQ(eng.stats().seen(FaultSite::BuddyAlloc), 3u);
}

TEST(FaultEngine, TimeWindowGatesOnTheSharedClock) {
  Clock clock;
  FaultPlan plan;
  plan.add({.site = FaultSite::NicDma,
            .action = FaultAction::Corrupt,
            .not_before = 1'000,
            .not_after = 2'000});
  FaultEngine eng(plan, clock);

  EXPECT_FALSE(eng.check(FaultSite::NicDma).has_value());  // t=0: too early
  clock.advance(1'500);
  EXPECT_TRUE(eng.check(FaultSite::NicDma).has_value());   // inside window
  clock.advance(1'000);
  EXPECT_FALSE(eng.check(FaultSite::NicDma).has_value());  // t=2500: too late
}

TEST(FaultEngine, FirstMatchingRuleWins) {
  Clock clock;
  FaultPlan plan;
  plan.add({.site = FaultSite::Wire, .action = FaultAction::Delay,
            .delay = 42});
  plan.add({.site = FaultSite::Wire, .action = FaultAction::Drop});
  FaultEngine eng(plan, clock);

  const auto d = eng.check(FaultSite::Wire);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->action, FaultAction::Delay);
  EXPECT_EQ(d->delay, 42u);
  EXPECT_EQ(d->rule_index, 0u);
}

TEST(FaultEngine, ZeroProbabilityNeverFires) {
  Clock clock;
  FaultPlan plan;
  plan.add({.site = FaultSite::Wire, .action = FaultAction::Drop,
            .probability = 0.0});
  FaultEngine eng(plan, clock);
  for (int i = 0; i < 1000; ++i)
    EXPECT_FALSE(eng.check(FaultSite::Wire).has_value());
}

TEST(FaultEngine, ProbabilityRoughlyMatchesRate) {
  Clock clock;
  FaultPlan plan;
  plan.seed = 7;
  plan.add({.site = FaultSite::Wire, .action = FaultAction::Drop,
            .probability = 0.25});
  FaultEngine eng(plan, clock);
  int fired = 0;
  for (int i = 0; i < 10'000; ++i)
    if (eng.check(FaultSite::Wire)) ++fired;
  EXPECT_GT(fired, 2'000);
  EXPECT_LT(fired, 3'000);
}

TEST(FaultEngine, SameSeedSameSchedule) {
  constexpr auto make_plan = [] {
    FaultPlan plan;
    plan.seed = 42;
    plan.add({.site = FaultSite::Wire, .action = FaultAction::Drop,
              .probability = 0.3});
    plan.add({.site = FaultSite::NicDma, .action = FaultAction::Corrupt,
              .probability = 0.1});
    return plan;
  };
  constexpr std::array sites{FaultSite::Wire, FaultSite::NicDma,
                             FaultSite::Wire, FaultSite::SwapRead};

  Clock c1, c2;
  FaultEngine a(make_plan(), c1);
  FaultEngine b(make_plan(), c2);
  for (int round = 0; round < 500; ++round) {
    for (const FaultSite s : sites) {
      const auto da = a.check(s);
      const auto db = b.check(s);
      ASSERT_EQ(da.has_value(), db.has_value());
      if (da) {
        EXPECT_EQ(da->entropy, db->entropy);
      }
      c1.advance(10);
      c2.advance(10);
    }
  }
  EXPECT_EQ(a.schedule_string(), b.schedule_string());
  EXPECT_FALSE(a.journal().empty());
}

TEST(FaultEngine, DifferentSeedDifferentSchedule) {
  constexpr auto make_plan = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.add({.site = FaultSite::Wire, .action = FaultAction::Drop,
              .probability = 0.5});
    return plan;
  };
  Clock c1, c2;
  FaultEngine a(make_plan(1), c1);
  FaultEngine b(make_plan(2), c2);
  for (int i = 0; i < 200; ++i) {
    (void)a.check(FaultSite::Wire);
    (void)b.check(FaultSite::Wire);
    c1.advance(10);
    c2.advance(10);
  }
  EXPECT_NE(a.schedule_string(), b.schedule_string());
}

TEST(FaultEngine, AddingARuleDoesNotPerturbOtherStreams) {
  // Rule streams derive from (seed, rule index), so appending a rule for an
  // unrelated site must leave the first rule's decisions untouched.
  FaultPlan base;
  base.seed = 99;
  base.add({.site = FaultSite::Wire, .action = FaultAction::Drop,
            .probability = 0.4});
  FaultPlan extended = base;
  extended.add({.site = FaultSite::SwapRead, .action = FaultAction::Fail,
                .probability = 0.4});

  Clock c1, c2;
  FaultEngine a(base, c1);
  FaultEngine b(extended, c2);
  for (int i = 0; i < 300; ++i) {
    const auto da = a.check(FaultSite::Wire);
    const auto db = b.check(FaultSite::Wire);
    ASSERT_EQ(da.has_value(), db.has_value()) << i;
  }
}

TEST(FaultEngine, JournalRecordsWhatFired) {
  Clock clock;
  FaultPlan plan;
  plan.add({.site = FaultSite::TptWrite, .action = FaultAction::Corrupt,
            .max_triggers = 1});
  FaultEngine eng(plan, clock);
  clock.advance(123);
  ASSERT_TRUE(eng.check(FaultSite::TptWrite).has_value());
  ASSERT_EQ(eng.journal().size(), 1u);
  const auto& e = eng.journal().front();
  EXPECT_EQ(e.when, 123u);
  EXPECT_EQ(e.site, FaultSite::TptWrite);
  EXPECT_EQ(e.action, FaultAction::Corrupt);
  EXPECT_EQ(e.event_index, 0u);
  EXPECT_EQ(e.rule_index, 0u);
  EXPECT_FALSE(e.to_string().empty());
}

/// `text` without its terminating NUL, as bytes.
template <std::size_t N>
constexpr std::array<std::byte, N - 1> bytes_of(const char (&text)[N]) {
  std::array<std::byte, N - 1> out{};
  for (std::size_t i = 0; i + 1 < N; ++i)
    out[i] = static_cast<std::byte>(text[i]);
  return out;
}

// One whole word and a 6-byte tail. Pinned, so changing the algorithm - and
// with it every checksum on the wire - has to be deliberate; checked here in
// a constant expression and in GoldenValue at run time.
constexpr auto kGoldenInput = bytes_of("vialock kiobuf");
constexpr std::uint32_t kGoldenChecksum = 0x9C8AF8E3u;
static_assert(checksum32(kGoldenInput) == kGoldenChecksum);

TEST(Checksum, GoldenValue) {
  const std::vector<std::byte> input(kGoldenInput.begin(), kGoldenInput.end());
  EXPECT_EQ(checksum32(input), kGoldenChecksum);
  EXPECT_EQ(checksum32({}), 0x4FD0BFC1u);
}

TEST(Checksum, DetectsEverySingleByteChange) {
  // Lengths 0-24 cover the word loop, the bytewise tail, and both together.
  for (std::size_t len = 0; len <= 24; ++len) {
    std::vector<std::byte> buf(len);
    for (std::size_t i = 0; i < len; ++i)
      buf[i] = static_cast<std::byte>(i * 37 + len);
    const std::uint32_t want = checksum32(buf);
    for (std::size_t i = 0; i < len; ++i) {
      for (unsigned x = 1; x < 256; ++x) {
        buf[i] ^= static_cast<std::byte>(x);
        EXPECT_NE(checksum32(buf), want)
            << "len " << len << " offset " << i << " xor " << x;
        buf[i] ^= static_cast<std::byte>(x);
      }
    }
  }
}

TEST(Checksum, DetectsSingleBitFlips) {
  std::array<std::byte, 64> buf{};
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(i * 7);
  const std::uint32_t want = checksum32(buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] ^= std::byte{0x10};
    EXPECT_NE(checksum32(buf), want) << "flip at " << i;
    buf[i] ^= std::byte{0x10};
  }
  EXPECT_EQ(checksum32(buf), want);
}

TEST(Checksum, DetectsStructuredMultiWordDamage) {
  // The same bit flipped in two words: for a flip in the top bit, FNV-1a's
  // multiply carries nothing down, so without the xor-shift two such flips
  // cancel. Every pair of whole words, every bit position, every length up
  // to 64 (with and without a tail).
  for (std::size_t len = 16; len <= 64; ++len) {
    std::vector<std::byte> buf(len);
    for (std::size_t i = 0; i < len; ++i)
      buf[i] = static_cast<std::byte>(i * 37 + len);
    const std::uint32_t want = checksum32(buf);
    const std::size_t words = len / 8;
    for (std::size_t w1 = 0; w1 < words; ++w1) {
      for (std::size_t w2 = w1 + 1; w2 < words; ++w2) {
        for (unsigned bit = 0; bit < 64; ++bit) {
          const auto mask = static_cast<std::byte>(1u << (bit % 8));
          buf[8 * w1 + bit / 8] ^= mask;
          buf[8 * w2 + bit / 8] ^= mask;
          EXPECT_NE(checksum32(buf), want) << "len " << len << " words " << w1
                                           << "," << w2 << " bit " << bit;
          buf[8 * w1 + bit / 8] ^= mask;
          buf[8 * w2 + bit / 8] ^= mask;
        }
      }
    }
  }

  // Two distinct words swapped, in either lane or across the lanes.
  {
    std::array<std::byte, 64> buf{};
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = static_cast<std::byte>(i * 11 + 3);
    const std::uint32_t want = checksum32(buf);
    for (std::size_t w1 = 0; w1 < 8; ++w1) {
      for (std::size_t w2 = w1 + 1; w2 < 8; ++w2) {
        std::array<std::byte, 64> swapped = buf;
        std::swap_ranges(swapped.begin() + 8 * w1, swapped.begin() + 8 * w1 + 8,
                         swapped.begin() + 8 * w2);
        EXPECT_NE(checksum32(swapped), want) << "words " << w1 << "," << w2;
      }
    }
  }

  // The wrong-frame DMA: one page of a 3-page buffer replaced by another
  // page's contents.
  constexpr std::size_t kPage = 4096;
  std::vector<std::byte> pages(3 * kPage);
  Rng rng(7);
  for (std::byte& b : pages) b = static_cast<std::byte>(rng.next());
  const std::uint32_t want = checksum32(pages);
  for (std::size_t dst = 0; dst < 3; ++dst) {
    for (std::size_t src = 0; src < 3; ++src) {
      if (src == dst) continue;
      std::vector<std::byte> damaged = pages;
      std::copy_n(pages.begin() + src * kPage, kPage,
                  damaged.begin() + dst * kPage);
      EXPECT_NE(checksum32(damaged), want) << "page " << src << " over " << dst;
    }
  }
}

}  // namespace
}  // namespace vialock::fault
