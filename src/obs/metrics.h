// metrics.h - the unified metric registry (DESIGN.md section 10).
//
// One way to count things: every subsystem publishes its counters, gauges and
// latency histograms through a MetricRegistry keyed `subsystem.component.name`
// (first dot-segment = subsystem: simkern, via, core, pinmgr, msg, fault,
// obs). Two publication styles coexist:
//
//   * owned instruments - counter()/gauge()/histogram() hand out get-or-create
//     handles the hot path updates directly (ioctl latency histograms, DMA
//     byte sizes). Handles are stable for the registry's lifetime.
//   * pull sources - register_source(name, owner, fn) adds a callback that
//     emits a component's existing stats struct on every visit, so the
//     long-lived per-subsystem counter structs (KernelStats, AgentStats,
//     GovernorStats, ...) keep their cheap `++stats_.x` hot paths while still
//     exporting through the one registry.
//
// Sources carry an owner tag: re-registering a name replaces the previous
// source (a rebuilt component - enable_governor(), a new Channel - simply
// takes the name over), and unregister_source() is a no-op unless the caller
// still owns the name. That makes construct-new-then-destroy-old sequences
// safe without ordering gymnastics.
//
// visit() is the one walk over a registry: owned counters, gauges and
// histograms, then each source, every metric handed to a MetricVisitor. A
// source may emit a different list on each visit: nothing downstream keys
// on an emission's position.
// snapshot() is visit() plus "build a Metric, sort by name"; the sampler
// (src/obs/sampler.h) visits every host registry directly and merges by
// name. Every value is derived from the deterministic simulation (virtual
// clock, seeded RNG), so same-seed runs produce byte-identical snapshots -
// the property the exporters (src/obs/export.h) and the benches' --metrics
// flag rely on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace vialock::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

[[nodiscard]] constexpr std::string_view to_string(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (queue depth, frames in use).
class Gauge {
 public:
  void set(std::uint64_t v) { value_ = v; }
  void add(std::int64_t d) { value_ += static_cast<std::uint64_t>(d); }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Log2-bucketed histogram for latency-like quantities, with a running sum
/// and exact max so exporters can report mean and tail without keeping
/// samples. The tree's one general-purpose histogram.
///
/// Bucket i holds values whose bit-width is i: bucket 0 = {0}, bucket 1 =
/// {1}, bucket k = [2^(k-1), 2^k - 1]. upper_bound(i) is the largest value
/// bucket i admits.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;  // unsigned, so a running max from 0 works
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t max() const {
    return count_ ? max_ : 0;
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i];
  }

  /// Upper bound of the bucket holding quantile q in [0,1]; 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    const std::uint64_t n = count_;
    if (n == 0) return 0;
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > target) return upper_bound(i);
    }
    return upper_bound(kBuckets - 1);
  }

  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    return static_cast<std::size_t>(64 - __builtin_clzll(v));
  }
  [[nodiscard]] static constexpr std::uint64_t upper_bound(std::size_t i) {
    return i == 0 ? 0 : (i >= 64 ? ~0ULL : (1ULL << i) - 1);
  }

  /// Fill a snapshot Metric (count/sum/max, non-empty buckets, all four
  /// tail quantiles) in a single pass over the bucket array, where the
  /// separate quantile() walks would touch the buckets five times over.
  void snapshot_to(struct Metric& m) const;

 private:
  std::uint64_t buckets_[kBuckets]{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// One metric in a snapshot. Counters/gauges carry `value`; histograms carry
/// count/sum/max, the non-empty buckets, and precomputed tail quantiles.
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t value = 0;
  // Histogram payload:
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;  ///< idx -> n
};

/// All metrics, sorted by name (deterministic across same-seed runs).
using Snapshot = std::vector<Metric>;

/// Receives one metric per call from MetricRegistry::visit. `prefix` is
/// the emitting source's registered name ("" for owned instruments); the
/// full metric name is `prefix.name`, or `name` when the prefix is empty.
/// `hist` is non-null exactly for histograms (whose `value` is 0).
using MetricVisitor =
    std::function<void(std::string_view prefix, std::string_view name,
                       MetricKind kind, std::uint64_t value,
                       const Histogram* hist)>;

/// The emit interface pull sources write through: each emission goes
/// straight to the visitor walking the registry, tagged with the source's
/// registered name ("via.agent" + "hits" -> "via.agent.hits").
class MetricSink {
 public:
  MetricSink(std::string_view prefix, const MetricVisitor& visit)
      : prefix_(prefix), visit_(visit) {}

  void counter(std::string_view name, std::uint64_t v) {
    visit_(prefix_, name, MetricKind::Counter, v, nullptr);
  }
  void gauge(std::string_view name, std::uint64_t v) {
    visit_(prefix_, name, MetricKind::Gauge, v, nullptr);
  }

 private:
  std::string_view prefix_;
  const MetricVisitor& visit_;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // --- owned instruments (hot-path handles, stable addresses) ----------------
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  // --- pull sources -----------------------------------------------------------
  using SourceFn = std::function<void(MetricSink&)>;
  /// Register `fn` to emit metrics under `name.` on every visit. A name
  /// already registered is taken over (the previous owner's later
  /// unregister_source becomes a no-op).
  void register_source(std::string name, const void* owner, SourceFn fn);
  /// Remove `name` if - and only if - `owner` still owns it.
  void unregister_source(std::string_view name, const void* owner);
  [[nodiscard]] std::size_t num_sources() const { return sources_.size(); }

  /// Hand every metric to `fn`: owned counters, gauges and histograms
  /// (each in name order), then each source's emissions (sources in name
  /// order, emissions in the order the source makes them).
  void visit(const MetricVisitor& fn) const;

  /// Every metric visit() yields, sorted by metric name.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Source {
    const void* owner = nullptr;
    SourceFn fn;
  };

  // Ordered maps: iteration (and therefore visit order) is deterministic.
  // unique_ptr keeps instrument addresses stable across later insertions.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, Source, std::less<>> sources_;
};

}  // namespace vialock::obs
