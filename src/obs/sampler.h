// sampler.h - continuous telemetry over the metric registries (DESIGN.md
// section 16).
//
// Everything obs exports today is an end-of-run snapshot or a crash-time
// flight dump; the dynamics between t=0 and the final report - pinned-frame
// pressure building, reclaim waking, registration churn - are invisible. A
// Sampler closes that gap: driven from the scenario scheduler's virtual
// clock (interval ticks, see scenario/scheduler.h), each sample() walks
// every host's MetricRegistry (MetricRegistry::visit) and merges the
// metrics by name into one cluster-wide view - counters and gauges sum,
// histograms merge their log2 buckets and recompute quantiles - and
// appends it to a bounded ring of time-stamped samples. When two emissions
// share a name but not a kind, the first one a tick walks wins.
//
// Exports:
//   timeline_json()         - the deterministic TIMELINE_*.json document:
//                             per-metric series of [t_ns, value, delta,
//                             rate-per-second] points (integer math only,
//                             byte-identical across same-seed serial runs).
//   chrome_counter_events() - counter events (ph "C") for the configured
//                             trace_metrics, spliced into a chrome trace via
//                             the chrome_trace(recs, extra) overload so
//                             rates render next to spans.
//
// SLO watchdogs ride the same ticks: a rule is a *requirement* on a metric
// reference ("svc.kv.op_ns.p99 le 50000"); the tick that observes it
// violated records a firing and calls the hook (the scenario engine uses it
// to flight-dump *before* the run fails its audit), then the rule sleeps
// for window-1 ticks so a persistent violation fires once per window, not
// once per tick.
//
// The sampler itself charges no virtual time and posts no events, so
// enabling it cannot perturb the simulation timeline (the E23 frozen-bytes
// gate keeps holding).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"

namespace vialock::obs {

/// Comparison a metric is *required* to satisfy; the rule fires on ticks
/// where it does not.
enum class SloOp : std::uint8_t { Lt, Le, Gt, Ge };

[[nodiscard]] constexpr std::string_view to_string(SloOp op) {
  switch (op) {
    case SloOp::Lt: return "lt";
    case SloOp::Le: return "le";
    case SloOp::Gt: return "gt";
    case SloOp::Ge: return "ge";
  }
  return "?";
}

/// One watchdog rule. `metric` is a metric reference: a plain snapshot name
/// (counter/gauge value, histogram count) or a histogram name suffixed
/// .p50/.p95/.p99/.p999/.count/.sum/.max.
struct SloSpec {
  std::string metric;
  SloOp op = SloOp::Le;
  std::uint64_t threshold = 0;
  std::uint64_t window = 1;  ///< min sample ticks between firings (>= 1)
};

/// One recorded violation.
struct SloFiring {
  std::size_t rule = 0;       ///< index into rules()
  std::uint64_t tick = 0;     ///< 0-based sample tick that observed it
  Nanos when = 0;             ///< virtual time of that tick
  std::uint64_t observed = 0; ///< the metric value that violated the rule
};

class Sampler {
 public:
  struct Config {
    Nanos interval = 1'000'000;        ///< sampling period
    std::size_t max_samples = 4096;    ///< ring bound; oldest dropped beyond
    std::vector<std::string> trace_metrics;  ///< counter-overlay references
  };

  /// One retained tick: the cluster-merged metric view at `when`.
  struct Sample {
    Nanos when = 0;
    std::vector<Metric> metrics;  ///< sorted by name
  };

  using SloHook = std::function<void(const SloSpec&, const SloFiring&)>;

  Sampler() = default;
  explicit Sampler(Config cfg) : cfg_(std::move(cfg)) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Registries merged at each tick. Must outlive the sampler; add before
  /// the first sample() so every sample covers the same set.
  void add_registry(const MetricRegistry* reg) { registries_.push_back(reg); }

  void add_slo(SloSpec spec) {
    rules_.push_back(std::move(spec));
    cooldowns_.push_back(0);
  }
  void set_slo_hook(SloHook hook) { hook_ = std::move(hook); }

  /// Take one sample at virtual time `when` and evaluate the SLO rules.
  void sample(Nanos when);

  [[nodiscard]] const std::deque<Sample>& samples() const { return samples_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const std::vector<SloSpec>& rules() const { return rules_; }
  [[nodiscard]] const std::vector<SloFiring>& firings() const {
    return firings_;
  }
  [[nodiscard]] Nanos interval() const { return cfg_.interval; }

  /// The TIMELINE_*.json document (see file comment).
  [[nodiscard]] std::string timeline_json(std::string_view scenario,
                                          std::uint64_t seed) const;

  /// Pre-rendered ph "C" events for Config::trace_metrics, in the shape the
  /// chrome_trace(recs, extra) overload splices ("" when nothing resolves).
  [[nodiscard]] std::string chrome_counter_events() const;

  /// Resolve a metric reference (plain name or quantile/field suffix, see
  /// SloSpec) against a sorted sample. False when nothing matches.
  [[nodiscard]] static bool resolve(const std::vector<Metric>& metrics,
                                    std::string_view ref, std::uint64_t& out);

 private:
  /// One merged metric: reset (taking the emitter's kind) at its first
  /// emission of a tick, then summed/merged into by the rest.
  struct Slot {
    Metric m;
    std::uint64_t tick = 0;  ///< last tick that reset it
  };

  Config cfg_;
  std::vector<const MetricRegistry*> registries_;
  /// Every name any tick has emitted -> its slot (entries are never erased).
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> live_;  ///< slots emitted this tick
  std::string name_;                 ///< full-name buffer reused per emission
  std::deque<Sample> samples_;
  std::uint64_t ticks_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<SloSpec> rules_;
  std::vector<std::uint64_t> cooldowns_;  ///< ticks each rule still sleeps
  std::vector<SloFiring> firings_;
  SloHook hook_;
};

}  // namespace vialock::obs
