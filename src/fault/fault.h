// fault.h - deterministic fault injection for the whole simulation.
//
// The paper's locktest provokes exactly one failure (the swapper relocating
// registered pages); everything else in the substrate was assumed perfect.
// This subsystem makes the other failure modes injectable - swap I/O errors
// and latency spikes, allocation failure under pressure, kiobuf map refusal,
// NIC doorbell drops, DMA bit-flips, TPT corruption/eviction, wire drops and
// connection resets - so the transport's reliability layer has something to
// survive and the chaos experiments have something to measure.
//
// Everything is seed-driven and replayable: a FaultPlan (seed + rules) fed
// to a FaultEngine produces the *identical* schedule of injected faults on
// every run, because the simulation itself is deterministic and each rule
// draws from its own SplitMix64-derived stream. The engine keeps a journal
// of every injection; two runs agree iff their journals are byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/rng.h"

namespace vialock {
class TraceRing;
}

namespace vialock::fault {

/// Where in the substrate a rule can fire. Each hook site reports every
/// event it sees (a swap write, a doorbell ring, ...) to the engine, which
/// counts it and matches rules against it.
enum class FaultSite : std::uint8_t {
  SwapRead,     ///< rw_swap_page(READ): fail (EIO), delay, corrupt page data
  SwapWrite,    ///< rw_swap_page(WRITE): fail, delay, corrupt stored page
  BuddyAlloc,   ///< get_free_pages(): fail (allocation refused)
  KiobufMap,    ///< map_user_kiobuf(): fail (transient EAGAIN)
  NicDoorbell,  ///< post_send doorbell: drop (descriptor silently lost)
  NicDma,       ///< DMA engine gather: corrupt (bit-flip in flight), delay
  TptWrite,     ///< program_tpt(): corrupt (pfn bit-flip) or fail (evict)
  Wire,         ///< fabric transmit: drop (packet lost after send completes)
  Connection,   ///< fabric transmit: fail (connection reset, both VIs break)
  PinAdmission, ///< PinGovernor::charge(): fail (spurious quota-check race)
  PinReclaim,   ///< PinGovernor::on_memory_pressure(): drop (reclaim pass fails)
  TptAlloc,     ///< Tpt::alloc via the kernel agent: fail (table claim refused)
};

inline constexpr std::size_t kNumFaultSites = 12;

[[nodiscard]] constexpr std::string_view to_string(FaultSite s) {
  switch (s) {
    case FaultSite::SwapRead: return "swap-read";
    case FaultSite::SwapWrite: return "swap-write";
    case FaultSite::BuddyAlloc: return "buddy-alloc";
    case FaultSite::KiobufMap: return "kiobuf-map";
    case FaultSite::NicDoorbell: return "nic-doorbell";
    case FaultSite::NicDma: return "nic-dma";
    case FaultSite::TptWrite: return "tpt-write";
    case FaultSite::Wire: return "wire";
    case FaultSite::Connection: return "connection";
    case FaultSite::PinAdmission: return "pin-admission";
    case FaultSite::PinReclaim: return "pin-reclaim";
    case FaultSite::TptAlloc: return "tpt-alloc";
  }
  return "?";
}

/// What an armed rule does to the event it matched. Hook sites interpret the
/// action in site-appropriate terms (see FaultSite comments); a site that
/// cannot express an action ignores the decision.
enum class FaultAction : std::uint8_t {
  Fail,     ///< operation returns an error status
  Delay,    ///< operation succeeds but charges extra virtual time
  Corrupt,  ///< operation succeeds but data is bit-flipped
  Drop,     ///< operation vanishes silently (no error, no effect)
};

[[nodiscard]] constexpr std::string_view to_string(FaultAction a) {
  switch (a) {
    case FaultAction::Fail: return "fail";
    case FaultAction::Delay: return "delay";
    case FaultAction::Corrupt: return "corrupt";
    case FaultAction::Drop: return "drop";
  }
  return "?";
}

/// One trigger: fire `action` at `site`, for events inside the window
/// [after_events, +inf) x [not_before, not_after], with probability
/// `probability` per event, at most `max_triggers` times overall.
struct FaultRule {
  FaultSite site = FaultSite::Wire;
  FaultAction action = FaultAction::Drop;
  double probability = 1.0;        ///< per-event Bernoulli (1.0 = always)
  std::uint64_t after_events = 0;  ///< skip the first N events at this site
  std::uint64_t max_triggers = UINT64_MAX;
  Nanos not_before = 0;            ///< simulated-time window start
  Nanos not_after = UINT64_MAX;    ///< simulated-time window end
  Nanos delay = 100'000;           ///< extra virtual time (Delay action)
  std::uint64_t corrupt_mask = 0x01;  ///< XOR mask applied by Corrupt
};

/// A complete, replayable chaos schedule: the seed fixes every random draw.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;

  FaultPlan& add(FaultRule rule) {
    rules.push_back(rule);
    return *this;
  }
};

/// What a hook site must do for the matched event.
struct FaultDecision {
  FaultAction action = FaultAction::Fail;
  Nanos delay = 0;              ///< Delay: charge this much virtual time
  std::uint64_t corrupt_mask = 0;  ///< Corrupt: XOR this into the data
  std::uint64_t entropy = 0;    ///< deterministic per-trigger draw (e.g. to
                                ///< pick which byte of a payload to flip)
  std::size_t rule_index = 0;
};

struct FaultStats {
  std::uint64_t events_seen[kNumFaultSites] = {};
  std::uint64_t faults_injected[kNumFaultSites] = {};

  [[nodiscard]] std::uint64_t seen(FaultSite s) const {
    return events_seen[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t injected(FaultSite s) const {
    return faults_injected[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t total_injected() const {
    std::uint64_t sum = 0;
    for (const auto v : faults_injected) sum += v;
    return sum;
  }
};

/// The engine: hook sites call check(site); a non-empty decision means the
/// event is faulted. Deterministic given (plan, query sequence): each rule
/// owns an Rng derived from plan.seed and its index, so adding a rule never
/// perturbs the draws of the others.
class FaultEngine {
 public:
  struct JournalEntry {
    Nanos when = 0;
    FaultSite site = FaultSite::Wire;
    FaultAction action = FaultAction::Drop;
    std::uint64_t event_index = 0;  ///< which event at this site (0-based)
    std::size_t rule_index = 0;

    [[nodiscard]] std::string to_string() const;
  };

  FaultEngine(FaultPlan plan, const Clock& clock);

  /// Report one event at `site`; a decision means "inject". At most one rule
  /// fires per event (first match in plan order wins).
  [[nodiscard]] std::optional<FaultDecision> check(FaultSite site);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const std::vector<JournalEntry>& journal() const {
    return journal_;
  }
  /// The whole schedule as text - byte-identical across same-seed runs.
  [[nodiscard]] std::string schedule_string() const;

  /// Mirror injections into a kernel trace ring as FaultInjected events
  /// (addr = site, pfn = rule index), for post-mortem dumps.
  void mirror_to(TraceRing* trace) { trace_ = trace; }

 private:
  FaultPlan plan_;
  const Clock& clock_;
  std::vector<Rng> rule_rngs_;   ///< one independent stream per rule
  std::vector<std::uint64_t> rule_triggers_;
  FaultStats stats_;
  std::vector<JournalEntry> journal_;
  TraceRing* trace_ = nullptr;
};

/// The transport's eager-frame and payload integrity check and the svc
/// tier's end-to-end value check: FNV-1a over 64-bit little-endian words,
/// in two lanes. Lane a absorbs words 0, 2, 4, ... and lane b words 1, 3,
/// 5, ...; each round xors the word in, multiplies, and xor-shifts the
/// state right by 29. Lane a starts at the FNV offset basis and multiplies
/// by the 64-bit FNV prime; lane b starts at and multiplies by 2^64/phi
/// (odd). Lane b joins lane a through one more of its rounds, the 0-7
/// trailing bytes are absorbed one at a time (xor, FNV multiply), and the
/// state is folded to 32 bits as h ^ (h >> 32). The two lanes are
/// independent multiply chains, so the CPU overlaps them. Words are
/// assembled by shifts, so the value is the same on every host and in
/// constant expressions. An input without a whole word never touches lane
/// b: the empty input and inputs of 1-7 bytes hash as plain bytewise FNV-1a.
///
/// Detection: every round, the join and every tail step is a bijection of
/// the state, so a change confined to one word or one tail byte always
/// changes the 64-bit state; it is missed only when the two states fold
/// alike, with probability about 2^-32. The shift is what makes that hold
/// for structured damage too. Without it the multiply only carries upward,
/// so flipping bit 63 of two words flips bit 63 of the state twice and the
/// change cancels; the shift carries the top bits down into the next
/// multiply, where they spread. A shift of 32 would not do: it maps a
/// bit-63 change to bits 63 and 31, which the final fold cancels. The
/// lanes multiply by different constants because the FNV prime spreads a
/// one-bit change over few bits: with it in both lanes, the same flip in
/// one word of each lane cancelled in the join in about one measured case
/// in 2^19. Checksum.DetectsStructuredMultiWordDamage checks same-bit
/// flips in word pairs, swapped words and a page copied over another.
[[nodiscard]] constexpr std::uint32_t checksum32(
    std::span<const std::byte> data) {
  constexpr std::uint64_t kPrime = 0x00000100000001B3ULL;
  constexpr std::uint64_t kLaneB = 0x9E3779B97F4A7C15ULL;
  const auto word_at = [&data](std::size_t i) {
    // Through a pointer, not data[i + b]: GCC then merges the eight byte
    // loads into one 8-byte load.
    const std::byte* word = data.data() + i;
    const auto at = [word](std::size_t b) {
      return static_cast<std::uint64_t>(word[b]);
    };
    return at(0) | at(1) << 8 | at(2) << 16 | at(3) << 24 | at(4) << 32 |
           at(5) << 40 | at(6) << 48 | at(7) << 56;
  };
  const auto round = [](std::uint64_t h, std::uint64_t multiplier) {
    h *= multiplier;
    return h ^ (h >> 29);
  };
  std::uint64_t a = 0xCBF29CE484222325ULL;  // the FNV-1a offset basis
  std::uint64_t b = kLaneB;
  std::size_t i = 0;
  for (; i + 16 <= data.size(); i += 16) {
    a = round(a ^ word_at(i), kPrime);
    b = round(b ^ word_at(i + 8), kLaneB);
  }
  if (i + 8 <= data.size()) {
    a = round(a ^ word_at(i), kPrime);
    i += 8;
  }
  std::uint64_t h = i == 0 ? a : a ^ round(b, kLaneB);
  for (; i < data.size(); ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= kPrime;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace vialock::fault
