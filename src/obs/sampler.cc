#include "obs/sampler.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "obs/export.h"

namespace vialock::obs {

namespace {

/// Quantile over merged (index, count) bucket pairs, same walk as
/// obs::Histogram::quantile. 0 when empty.
std::uint64_t merged_quantile(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& buckets,
    std::uint64_t count, double q) {
  if (count == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (const auto& [i, n] : buckets) {
    seen += n;
    if (seen > target) return Histogram::upper_bound(i);
  }
  return buckets.empty() ? 0 : Histogram::upper_bound(buckets.back().first);
}

bool satisfied(SloOp op, std::uint64_t v, std::uint64_t threshold) {
  switch (op) {
    case SloOp::Lt: return v < threshold;
    case SloOp::Le: return v <= threshold;
    case SloOp::Gt: return v > threshold;
    case SloOp::Ge: return v >= threshold;
  }
  return true;
}

const Metric* find_metric(const std::vector<Metric>& metrics,
                          std::string_view name) {
  const auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const Metric& m, std::string_view n) { return m.name < n; });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

/// Merge one host histogram into a slot: add its non-empty buckets into the
/// slot's sorted (index, count) list in place, and its running stats.
void add_histogram(Metric& d, const Histogram& h) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t n = h.bucket(i);
    if (n == 0) continue;
    const auto idx = static_cast<std::uint32_t>(i);
    while (at < d.buckets.size() && d.buckets[at].first < idx) ++at;
    if (at < d.buckets.size() && d.buckets[at].first == idx) {
      d.buckets[at].second += n;
    } else {
      d.buckets.insert(d.buckets.begin() + static_cast<std::ptrdiff_t>(at),
                       {idx, n});
    }
  }
  d.count += h.count();
  d.sum += h.sum();
  d.max = std::max(d.max, h.max());
}

}  // namespace

void Sampler::sample(Nanos when) {
  ++ticks_;
  // One walk, merged by name: every registry is visited in add_registry
  // order and each emission is looked up by its full name. A slot resets at
  // its first emission of the tick and takes that emission's kind; a later
  // same-named emission of another kind is dropped, so across registries
  // (and within one, in visit order) the first emitter wins a name clash.
  live_.clear();
  const MetricVisitor merge = [this](std::string_view prefix,
                                     std::string_view name, MetricKind kind,
                                     std::uint64_t value,
                                     const Histogram* hist) {
    name_.assign(prefix);
    if (!prefix.empty()) name_ += '.';
    name_ += name;
    auto it = index_.find(name_);
    if (it == index_.end()) {
      it = index_.emplace(name_, static_cast<std::uint32_t>(slots_.size()))
               .first;
      slots_.emplace_back().m.name = name_;
    }
    Slot& slot = slots_[it->second];
    Metric& m = slot.m;
    if (slot.tick != ticks_) {
      slot.tick = ticks_;
      live_.push_back(it->second);
      m.kind = kind;
      m.value = m.count = m.sum = m.max = 0;
      m.buckets.clear();
    } else if (m.kind != kind) {
      return;
    }
    if (hist != nullptr) {
      add_histogram(m, *hist);
    } else {
      m.value += value;
    }
  };
  for (const MetricRegistry* reg : registries_) reg->visit(merge);

  std::sort(live_.begin(), live_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return slots_[a].m.name < slots_[b].m.name;
            });
  Sample s;
  s.when = when;
  s.metrics.reserve(live_.size());
  for (const std::uint32_t i : live_) {
    Metric& m = s.metrics.emplace_back(slots_[i].m);
    if (m.kind == MetricKind::Histogram && !m.buckets.empty()) {
      // Cross-host merge invalidated the per-host quantiles; recompute
      // from the merged buckets (exact for the single-host case too).
      m.p50 = merged_quantile(m.buckets, m.count, 0.50);
      m.p95 = merged_quantile(m.buckets, m.count, 0.95);
      m.p99 = merged_quantile(m.buckets, m.count, 0.99);
      m.p999 = merged_quantile(m.buckets, m.count, 0.999);
    }
  }

  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (cooldowns_[i] > 0) {
      --cooldowns_[i];
      continue;
    }
    std::uint64_t v = 0;
    if (!resolve(s.metrics, rules_[i].metric, v)) continue;
    if (satisfied(rules_[i].op, v, rules_[i].threshold)) continue;
    const SloFiring firing{i, ticks_ - 1, when, v};
    firings_.push_back(firing);
    cooldowns_[i] = rules_[i].window - 1;
    if (hook_) hook_(rules_[i], firing);
  }

  samples_.push_back(std::move(s));
  if (samples_.size() > cfg_.max_samples) {
    samples_.pop_front();
    ++dropped_;
  }
}

bool Sampler::resolve(const std::vector<Metric>& metrics, std::string_view ref,
                      std::uint64_t& out) {
  if (const Metric* m = find_metric(metrics, ref)) {
    out = m->kind == MetricKind::Histogram ? m->count : m->value;
    return true;
  }
  const auto dot = ref.rfind('.');
  if (dot == std::string_view::npos) return false;
  const std::string_view field = ref.substr(dot + 1);
  const Metric* m = find_metric(metrics, ref.substr(0, dot));
  if (m == nullptr || m->kind != MetricKind::Histogram) return false;
  if (field == "count") out = m->count;
  else if (field == "sum") out = m->sum;
  else if (field == "max") out = m->max;
  else if (field == "p50") out = m->p50;
  else if (field == "p95") out = m->p95;
  else if (field == "p99") out = m->p99;
  else if (field == "p999") out = m->p999;
  else return false;
  return true;
}

std::string Sampler::timeline_json(std::string_view scenario,
                                   std::uint64_t seed) const {
  // Pivot samples into per-metric series. Histograms contribute a .count
  // series (how fast events arrive) and a .p99 series (how the tail moves);
  // the full distribution stays available in end-of-run exports.
  struct Pt {
    Nanos t;
    std::uint64_t v;
  };
  std::map<std::string, std::pair<std::string_view, std::vector<Pt>>> series;
  const auto add = [&series](std::string name, std::string_view kind, Nanos t,
                             std::uint64_t v) {
    auto& e = series[std::move(name)];
    e.first = kind;
    e.second.push_back({t, v});
  };
  for (const Sample& s : samples_) {
    for (const Metric& m : s.metrics) {
      if (m.kind == MetricKind::Histogram) {
        add(m.name + ".count", "counter", s.when, m.count);
        add(m.name + ".p99", "gauge", s.when, m.p99);
      } else {
        add(m.name, to_string(m.kind), s.when, m.value);
      }
    }
  }

  std::ostringstream os;
  os << "{\n  \"scenario\": " << json_quote(scenario)
     << ",\n  \"seed\": " << seed << ",\n  \"interval_ns\": " << cfg_.interval
     << ",\n  \"ticks\": " << ticks_ << ",\n  \"samples\": " << samples_.size()
     << ",\n  \"dropped\": " << dropped_ << ",\n  \"slo_firings\": [";
  for (std::size_t i = 0; i < firings_.size(); ++i) {
    const SloFiring& f = firings_[i];
    const SloSpec& r = rules_[f.rule];
    os << (i ? "," : "") << "\n    {\"metric\": " << json_quote(r.metric)
       << ", \"op\": " << json_quote(to_string(r.op))
       << ", \"threshold\": " << r.threshold << ", \"window\": " << r.window
       << ", \"tick\": " << f.tick << ", \"t_ns\": " << f.when
       << ", \"observed\": " << f.observed << "}";
  }
  os << (firings_.empty() ? "" : "\n  ") << "],\n  \"series\": [";
  bool first = true;
  for (const auto& [name, e] : series) {
    os << (first ? "" : ",") << "\n    {\"name\": " << json_quote(name)
       << ", \"kind\": " << json_quote(e.first) << ", \"points\": [";
    const std::vector<Pt>& pts = e.second;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      // [t_ns, value, delta, rate/s]; delta and rate are vs the previous
      // retained point (signed - gauges fall as well as rise).
      long long delta = 0;
      long long rate = 0;
      if (i > 0) {
        delta = static_cast<long long>(pts[i].v) -
                static_cast<long long>(pts[i - 1].v);
        const Nanos dt = pts[i].t - pts[i - 1].t;
        if (dt != 0) {
          rate = static_cast<long long>(static_cast<__int128>(delta) *
                                        1'000'000'000 /
                                        static_cast<__int128>(dt));
        }
      }
      os << (i ? ", " : "") << "[" << pts[i].t << ", " << pts[i].v << ", "
         << delta << ", " << rate << "]";
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

std::string Sampler::chrome_counter_events() const {
  std::ostringstream os;
  bool first = true;
  for (const Sample& s : samples_) {
    for (const std::string& name : cfg_.trace_metrics) {
      std::uint64_t v = 0;
      if (!resolve(s.metrics, name, v)) continue;
      os << (first ? "" : ",") << "\n  {\"name\": " << json_quote(name)
         << ", \"cat\": \"vialock\", \"ph\": \"C\", \"ts\": "
         << trace_micros(s.when) << ", \"pid\": 0, \"tid\": 0, "
         << "\"args\": {\"value\": " << v << "}}";
      first = false;
    }
  }
  return os.str();
}

}  // namespace vialock::obs
