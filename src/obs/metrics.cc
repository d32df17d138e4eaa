#include "obs/metrics.h"

#include <algorithm>

namespace vialock::obs {

void Histogram::snapshot_to(Metric& m) const {
  std::uint64_t b[kBuckets];
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    b[i] = buckets_[i];
    n += b[i];
  }
  m.count = n;
  m.sum = sum_;
  m.max = n != 0 ? max_ : 0;
  m.buckets.clear();
  if (n == 0) {
    m.p50 = m.p95 = m.p99 = m.p999 = 0;
    return;
  }
  // Same walk as quantile(), all four tails in one pass: a quantile is the
  // upper bound of the bucket where the running count first exceeds its
  // target. Every target is <= n-1 < n, so each always resolves.
  const auto target = [n](double q) {
    return static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  };
  const std::uint64_t t50 = target(0.50), t95 = target(0.95),
                      t99 = target(0.99), t999 = target(0.999);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (b[i] == 0) continue;
    m.buckets.emplace_back(static_cast<std::uint32_t>(i), b[i]);
    const std::uint64_t prev = seen;
    seen += b[i];
    const std::uint64_t ub = upper_bound(i);
    if (prev <= t50 && seen > t50) m.p50 = ub;
    if (prev <= t95 && seen > t95) m.p95 = ub;
    if (prev <= t99 && seen > t99) m.p99 = ub;
    if (prev <= t999 && seen > t999) m.p999 = ub;
  }
}

Counter& MetricRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricRegistry::register_source(std::string name, const void* owner,
                                     SourceFn fn) {
  sources_.insert_or_assign(std::move(name), Source{owner, std::move(fn)});
}

void MetricRegistry::unregister_source(std::string_view name,
                                       const void* owner) {
  const auto it = sources_.find(name);
  if (it != sources_.end() && it->second.owner == owner) sources_.erase(it);
}

void MetricRegistry::visit(const MetricVisitor& fn) const {
  for (const auto& [name, c] : counters_)
    fn({}, name, MetricKind::Counter, c->value(), nullptr);
  for (const auto& [name, g] : gauges_)
    fn({}, name, MetricKind::Gauge, g->value(), nullptr);
  for (const auto& [name, h] : histograms_)
    fn({}, name, MetricKind::Histogram, 0, h.get());
  for (const auto& [name, src] : sources_) {
    MetricSink sink(name, fn);
    src.fn(sink);
  }
}

Snapshot MetricRegistry::snapshot() const {
  Snapshot out;
  // Sources emit ~16-32 metrics each: one reserve instead of a realloc
  // ladder.
  out.reserve(counters_.size() + gauges_.size() + histograms_.size() +
              24 * sources_.size());
  visit([&out](std::string_view prefix, std::string_view name,
               MetricKind kind, std::uint64_t value, const Histogram* hist) {
    Metric& m = out.emplace_back();
    m.name.reserve(prefix.size() + 1 + name.size());
    if (!prefix.empty()) m.name.append(prefix).append(".");
    m.name.append(name);
    m.kind = kind;
    if (hist != nullptr) {
      hist->snapshot_to(m);
    } else {
      m.value = value;
    }
  });
  std::sort(out.begin(), out.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return out;
}

}  // namespace vialock::obs
