// trace.h - a fixed-size event ring for post-mortem debugging.
//
// The simulated kernel records its interesting transitions (faults,
// swap-outs, pins, registrations) here when tracing is enabled; tests and
// tools can dump the tail to see *why* a page moved. The ring's storage is
// allocated on the first enable(true), so a ring that is never enabled (every
// simulated host's, unless a tool arms it) owns none; after that, recording
// allocates nothing, and disabled tracing is a single branch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"

namespace vialock {

enum class TraceEvent : std::uint8_t {
  MinorFault,
  MajorFault,
  CowBreak,
  SwapOut,
  SwapIn,
  PagePinned,
  PageUnpinned,
  TptProgram,
  TptInvalidate,
  RegionRegistered,
  RegionDeregistered,
  KernelIoStart,
  KernelIoEnd,
  FaultInjected,   ///< fault engine fired a rule (addr = site, pfn = rule)
  DmaCorrupted,    ///< NIC DMA payload bit-flipped in flight
  SendRetry,       ///< reliable channel retransmitted a frame
  SendTimeout,     ///< reliable channel charged a retransmit timeout
  PinCharged,      ///< governor charged a registration (addr = pages, pfn = host total)
  PinUncharged,    ///< governor released a charge (addr = pages, pfn = host total)
  PinRejected,     ///< governor refused admission (addr = pages requested)
  LazyDeregQueued, ///< deregistration deferred to the governor (addr = reg id)
  LazyDeregDrained,///< deferred-dereg queue drained (addr = entries, pfn = pages)
  PinReclaimed,    ///< cooperative reclaim pass (addr = pages released)
  SpanBegin,       ///< obs::SpanRecorder opened a span (pid = track, addr = id)
  SpanEnd,         ///< obs::SpanRecorder closed a span (pid = track, addr = id)
};

[[nodiscard]] constexpr std::string_view to_string(TraceEvent e) {
  switch (e) {
    case TraceEvent::MinorFault: return "minor-fault";
    case TraceEvent::MajorFault: return "major-fault";
    case TraceEvent::CowBreak: return "cow-break";
    case TraceEvent::SwapOut: return "swap-out";
    case TraceEvent::SwapIn: return "swap-in";
    case TraceEvent::PagePinned: return "pin";
    case TraceEvent::PageUnpinned: return "unpin";
    case TraceEvent::TptProgram: return "tpt-program";
    case TraceEvent::TptInvalidate: return "tpt-invalidate";
    case TraceEvent::RegionRegistered: return "register";
    case TraceEvent::RegionDeregistered: return "deregister";
    case TraceEvent::KernelIoStart: return "io-start";
    case TraceEvent::KernelIoEnd: return "io-end";
    case TraceEvent::FaultInjected: return "fault-injected";
    case TraceEvent::DmaCorrupted: return "dma-corrupted";
    case TraceEvent::SendRetry: return "send-retry";
    case TraceEvent::SendTimeout: return "send-timeout";
    case TraceEvent::PinCharged: return "pin-charged";
    case TraceEvent::PinUncharged: return "pin-uncharged";
    case TraceEvent::PinRejected: return "pin-rejected";
    case TraceEvent::LazyDeregQueued: return "lazy-dereg-queued";
    case TraceEvent::LazyDeregDrained: return "lazy-dereg-drained";
    case TraceEvent::PinReclaimed: return "pin-reclaimed";
    case TraceEvent::SpanBegin: return "span-begin";
    case TraceEvent::SpanEnd: return "span-end";
  }
  return "?";
}

class TraceRing {
 public:
  struct Entry {
    Nanos when = 0;
    TraceEvent event = TraceEvent::MinorFault;
    std::uint32_t pid = 0;
    std::uint64_t addr = 0;  ///< virtual address or table index
    std::uint32_t pfn = 0;

    [[nodiscard]] std::string to_string() const {
      return std::to_string(when) + "ns " +
             std::string(vialock::to_string(event)) + " pid=" +
             std::to_string(pid) + " addr=0x" + hex(addr) + " pfn=" +
             std::to_string(pfn);
    }

   private:
    static std::string hex(std::uint64_t v) {
      static constexpr char kDigits[] = "0123456789abcdef";
      std::string out;
      do {
        out.insert(out.begin(), kDigits[v & 0xF]);
        v >>= 4;
      } while (v);
      return out;
    }
  };

  explicit TraceRing(std::size_t capacity = 1024) : capacity_(capacity) {}

  void enable(bool on) {
    if (on && ring_.empty()) ring_.resize(capacity_);
    enabled_ = on;
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(Nanos when, TraceEvent event, std::uint32_t pid,
              std::uint64_t addr, std::uint32_t pfn) {
    if (!enabled_) return;
    ring_[head_] = Entry{when, event, pid, addr, pfn};
    head_ = (head_ + 1) % capacity_;
    if (count_ < capacity_) ++count_;
  }

  /// Oldest-to-newest snapshot of the recorded tail.
  [[nodiscard]] std::vector<Entry> tail(std::size_t max_entries = SIZE_MAX) const {
    std::vector<Entry> out;
    const std::size_t n = std::min(count_, max_entries);
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = (head_ + capacity_ - n + i) % capacity_;
      out.push_back(ring_[idx]);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<Entry> ring_;  ///< capacity_ entries once first enabled
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool enabled_ = false;
};

}  // namespace vialock
