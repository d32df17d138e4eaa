// sampler_test.cc - unit tests for the continuous-telemetry sampler
// (DESIGN.md section 16): cluster merge semantics, the by-name merge
// (instruments and sources appearing, changing their emissions or leaving
// between ticks; first emitter wins a cross-kind name clash), the bounded
// sample ring, metric-reference resolution, SLO once-per-window firing, and
// the delta/rate derivation in the timeline export.
#include "obs/sampler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"

namespace vialock::obs {
namespace {

const Metric* find(const Sampler::Sample& s, std::string_view name) {
  for (const Metric& m : s.metrics)
    if (m.name == name) return &m;
  return nullptr;
}

// --- cluster merge -----------------------------------------------------------

TEST(Sampler, MergesRegistries) {
  MetricRegistry a;
  MetricRegistry b;
  a.counter("ops").inc(3);
  b.counter("ops").inc(4);
  a.gauge("depth").set(10);
  b.gauge("depth").set(2);
  a.histogram("lat_ns").add(100);
  a.histogram("lat_ns").add(1000);
  b.histogram("lat_ns").add(100000);

  Sampler smp;
  smp.add_registry(&a);
  smp.add_registry(&b);
  smp.sample(1'000'000);

  ASSERT_EQ(smp.samples().size(), 1u);
  const Sampler::Sample& s = smp.samples().front();
  EXPECT_EQ(s.when, 1'000'000);

  const Metric* ops = find(s, "ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->kind, MetricKind::Counter);
  EXPECT_EQ(ops->value, 7u);  // 3 + 4

  const Metric* depth = find(s, "depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 12u);  // gauges sum across hosts

  const Metric* lat = find(s, "lat_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, MetricKind::Histogram);
  EXPECT_EQ(lat->count, 3u);
  EXPECT_EQ(lat->sum, 101'100u);
  // Quantiles recomputed over the merged buckets with the same nearest-rank
  // walk as Histogram::quantile: target = floor(0.99 * (3 - 1)) = rank 1,
  // the 1000-sample's bucket - not host a's local tail, and max still sees
  // host b's outlier.
  EXPECT_EQ(lat->p99, Histogram::upper_bound(Histogram::bucket_of(1000)));
  EXPECT_EQ(lat->max, 100000u);

  // Samples are sorted by name (resolve() binary-searches them).
  for (std::size_t i = 1; i < s.metrics.size(); ++i)
    EXPECT_LT(s.metrics[i - 1].name, s.metrics[i].name);
}

TEST(Sampler, LateInstrumentAppearsFromItsTick) {
  MetricRegistry reg;
  reg.counter("ops").inc(1);
  Sampler smp;
  smp.add_registry(&reg);

  smp.sample(1);
  smp.sample(2);
  smp.sample(3);

  // A new instrument (e.g. a channel registering mid-run) appears from the
  // first tick after its creation on.
  reg.counter("late").inc(9);
  smp.sample(4);
  smp.sample(5);
  EXPECT_EQ(find(smp.samples()[2], "late"), nullptr);
  const Metric* late = find(smp.samples()[3], "late");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->value, 9u);

  reg.counter("ops").inc(5);
  smp.sample(6);
  EXPECT_EQ(find(smp.samples().back(), "ops")->value, 6u);
}

TEST(Sampler, SourceMayChangeItsEmissionsBetweenTicks) {
  MetricRegistry reg;
  bool both = false;
  reg.register_source("src", &reg, [&both](MetricSink& s) {
    if (both) s.counter("a", 1);
    s.counter("b", 2);
  });
  Sampler smp;
  smp.add_registry(&reg);

  smp.sample(1);
  EXPECT_EQ(find(smp.samples()[0], "src.a"), nullptr);
  ASSERT_NE(find(smp.samples()[0], "src.b"), nullptr);
  EXPECT_EQ(find(smp.samples()[0], "src.b")->value, 2u);

  // Same registration, one more emission ahead of the old one: each value
  // still lands on its own name.
  both = true;
  smp.sample(2);
  const Metric* b = find(smp.samples()[1], "src.b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->value, 2u);
  const Metric* a = find(smp.samples()[1], "src.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value, 1u);

  // And back: the dropped emission leaves the sample.
  both = false;
  smp.sample(3);
  EXPECT_EQ(find(smp.samples()[2], "src.a"), nullptr);
  EXPECT_EQ(find(smp.samples()[2], "src.b")->value, 2u);
}

TEST(Sampler, UnregisteredSourceLeavesLaterSamples) {
  MetricRegistry a;
  MetricRegistry b;
  const int owner = 0;
  a.register_source("ch", &owner, [](MetricSink& s) { s.counter("sent", 3); });
  b.register_source("ch", &owner, [](MetricSink& s) { s.counter("sent", 4); });
  Sampler smp;
  smp.add_registry(&a);
  smp.add_registry(&b);

  smp.sample(1);
  ASSERT_NE(find(smp.samples()[0], "ch.sent"), nullptr);
  EXPECT_EQ(find(smp.samples()[0], "ch.sent")->value, 7u);

  // One host's source goes: the survivor's value alone.
  a.unregister_source("ch", &owner);
  smp.sample(2);
  ASSERT_NE(find(smp.samples()[1], "ch.sent"), nullptr);
  EXPECT_EQ(find(smp.samples()[1], "ch.sent")->value, 4u);

  // Both gone: the name leaves later samples, earlier ones keep it.
  b.unregister_source("ch", &owner);
  smp.sample(3);
  EXPECT_EQ(find(smp.samples()[2], "ch.sent"), nullptr);
  EXPECT_NE(find(smp.samples()[0], "ch.sent"), nullptr);
  for (std::size_t i = 1; i < smp.samples()[2].metrics.size(); ++i)
    EXPECT_LT(smp.samples()[2].metrics[i - 1].name,
              smp.samples()[2].metrics[i].name);
}

TEST(Sampler, CrossKindNameClashFirstEmitterWins) {
  MetricRegistry a;
  MetricRegistry b;
  const int owner = 0;
  // Registry order decides across hosts: a's gauge comes first.
  a.gauge("x").set(5);
  b.counter("x").inc(7);
  // Visit order decides within a host: owned instruments before sources,
  // so the owned counter "src.y" beats the sources' gauge "y".
  a.counter("src.y").inc(2);
  a.register_source("src", &owner, [](MetricSink& s) { s.gauge("y", 40); });
  b.register_source("src", &owner, [](MetricSink& s) { s.gauge("y", 50); });
  // Sources clash the same way: a's gauge "t.z" wins while a emits it.
  a.register_source("t", &owner, [](MetricSink& s) { s.gauge("z", 1); });
  b.register_source("t", &owner, [](MetricSink& s) { s.counter("z", 8); });

  Sampler smp;
  smp.add_registry(&a);
  smp.add_registry(&b);
  smp.sample(1);
  const Metric* x = find(smp.samples()[0], "x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->kind, MetricKind::Gauge);
  EXPECT_EQ(x->value, 5u);  // b's counter is dropped, not added
  const Metric* y = find(smp.samples()[0], "src.y");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->kind, MetricKind::Counter);
  EXPECT_EQ(y->value, 2u);  // both hosts' gauges are dropped
  const Metric* z = find(smp.samples()[0], "t.z");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->kind, MetricKind::Gauge);
  EXPECT_EQ(z->value, 1u);

  // The winner is decided afresh every tick: once a stops emitting "t.z",
  // b's counter is the first emitter and the name changes kind.
  a.unregister_source("t", &owner);
  smp.sample(2);
  z = find(smp.samples()[1], "t.z");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->kind, MetricKind::Counter);
  EXPECT_EQ(z->value, 8u);
  EXPECT_EQ(find(smp.samples()[1], "x")->kind, MetricKind::Gauge);
}

TEST(Sampler, RingDropsOldestBeyondBound) {
  MetricRegistry reg;
  reg.counter("ops").inc(1);
  Sampler::Config cfg;
  cfg.max_samples = 4;
  Sampler smp(std::move(cfg));
  smp.add_registry(&reg);

  for (Nanos t = 1; t <= 6; ++t) smp.sample(t * 100);
  EXPECT_EQ(smp.ticks(), 6u);
  EXPECT_EQ(smp.dropped(), 2u);
  ASSERT_EQ(smp.samples().size(), 4u);
  EXPECT_EQ(smp.samples().front().when, 300);  // 100 and 200 were dropped
  EXPECT_EQ(smp.samples().back().when, 600);
}

// --- metric references -------------------------------------------------------

TEST(Sampler, ResolvesPlainNamesAndHistogramFields) {
  MetricRegistry reg;
  reg.counter("ops").inc(41);
  Histogram& h = reg.histogram("lat_ns");
  for (int i = 0; i < 100; ++i) h.add(64);
  h.add(100000);
  Sampler smp;
  smp.add_registry(&reg);
  smp.sample(1);
  const auto& m = smp.samples().front().metrics;

  std::uint64_t v = 0;
  EXPECT_TRUE(Sampler::resolve(m, "ops", v));
  EXPECT_EQ(v, 41u);
  EXPECT_TRUE(Sampler::resolve(m, "lat_ns", v));
  EXPECT_EQ(v, 101u);  // plain histogram name = count
  EXPECT_TRUE(Sampler::resolve(m, "lat_ns.count", v));
  EXPECT_EQ(v, 101u);
  EXPECT_TRUE(Sampler::resolve(m, "lat_ns.sum", v));
  EXPECT_EQ(v, 100u * 64u + 100000u);
  EXPECT_TRUE(Sampler::resolve(m, "lat_ns.p50", v));
  EXPECT_EQ(v, Histogram::upper_bound(Histogram::bucket_of(64)));
  EXPECT_TRUE(Sampler::resolve(m, "lat_ns.max", v));
  EXPECT_EQ(v, 100000u);
  EXPECT_FALSE(Sampler::resolve(m, "lat_ns.p42", v));
  EXPECT_FALSE(Sampler::resolve(m, "nope", v));
  EXPECT_FALSE(Sampler::resolve(m, "ops.p99", v));  // not a histogram
}

// --- SLO watchdogs -----------------------------------------------------------

TEST(Sampler, SloFiresOncePerWindowWhilePersistentlyViolated) {
  MetricRegistry reg;
  reg.gauge("pressure").set(10);
  Sampler smp;
  smp.add_registry(&reg);
  SloSpec rule;
  rule.metric = "pressure";
  rule.op = SloOp::Le;  // required <= 3: persistently violated
  rule.threshold = 3;
  rule.window = 3;
  smp.add_slo(rule);
  std::uint64_t hook_calls = 0;
  smp.set_slo_hook([&hook_calls](const SloSpec&, const SloFiring&) {
    ++hook_calls;
  });

  for (Nanos t = 1; t <= 7; ++t) smp.sample(t);
  // Ticks 0..6: fires at 0, sleeps 2, fires at 3, sleeps 2, fires at 6.
  ASSERT_EQ(smp.firings().size(), 3u);
  EXPECT_EQ(hook_calls, 3u);
  EXPECT_EQ(smp.firings()[0].tick, 0u);
  EXPECT_EQ(smp.firings()[1].tick, 3u);
  EXPECT_EQ(smp.firings()[2].tick, 6u);
  EXPECT_EQ(smp.firings()[0].observed, 10u);

  // Recovery rearms immediately after the cooldown: satisfied ticks never
  // fire, the next violated tick does.
  reg.gauge("pressure").set(0);
  smp.sample(8);
  smp.sample(9);
  smp.sample(10);
  ASSERT_EQ(smp.firings().size(), 3u);
  reg.gauge("pressure").set(10);
  smp.sample(11);
  ASSERT_EQ(smp.firings().size(), 4u);
}

TEST(Sampler, SloOnMissingMetricNeverFires) {
  MetricRegistry reg;
  reg.counter("ops").inc(1);
  Sampler smp;
  smp.add_registry(&reg);
  SloSpec rule;
  rule.metric = "does.not.exist";
  rule.op = SloOp::Le;
  rule.threshold = 0;
  smp.add_slo(rule);
  smp.sample(1);
  smp.sample(2);
  EXPECT_TRUE(smp.firings().empty());
}

// --- exports -----------------------------------------------------------------

TEST(Sampler, TimelineDerivesDeltaAndRate) {
  MetricRegistry reg;
  Counter& ops = reg.counter("ops");
  Sampler smp;
  smp.add_registry(&reg);

  ops.inc(10);
  smp.sample(1'000'000);
  ops.inc(4);
  smp.sample(2'000'000);
  ops.inc(1);
  smp.sample(3'000'000);

  const std::string json = smp.timeline_json("unit", 42);
  // Point = [t_ns, value, delta-vs-previous, rate-per-second].
  EXPECT_NE(json.find("[1000000, 10, 0, 0]"), std::string::npos) << json;
  EXPECT_NE(json.find("[2000000, 14, 4, 4000]"), std::string::npos) << json;
  EXPECT_NE(json.find("[3000000, 15, 1, 1000]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ticks\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"interval_ns\": 1000000"), std::string::npos);
}

TEST(Sampler, TimelineGaugeDeltasGoNegative) {
  MetricRegistry reg;
  Gauge& g = reg.gauge("depth");
  Sampler smp;
  smp.add_registry(&reg);
  g.set(8);
  smp.sample(1'000'000);
  g.set(3);
  smp.sample(2'000'000);
  const std::string json = smp.timeline_json("unit", 0);
  EXPECT_NE(json.find("[2000000, 3, -5, -5000]"), std::string::npos) << json;
}

TEST(Sampler, TimelineSplitsHistogramsIntoCountAndP99Series) {
  MetricRegistry reg;
  reg.histogram("lat_ns").add(100);
  Sampler smp;
  smp.add_registry(&reg);
  smp.sample(1'000'000);
  const std::string json = smp.timeline_json("unit", 0);
  EXPECT_NE(json.find("\"lat_ns.count\""), std::string::npos);
  EXPECT_NE(json.find("\"lat_ns.p99\""), std::string::npos);
}

TEST(Sampler, ChromeCounterOverlayRendersConfiguredMetrics) {
  MetricRegistry reg;
  reg.counter("ops").inc(5);
  Sampler::Config cfg;
  cfg.trace_metrics = {"ops", "not.there"};
  Sampler smp(std::move(cfg));
  smp.add_registry(&reg);
  smp.sample(2'000);

  const std::string ev = smp.chrome_counter_events();
  EXPECT_NE(ev.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(ev.find("\"name\": \"ops\""), std::string::npos);
  EXPECT_NE(ev.find("\"value\": 5"), std::string::npos);
  EXPECT_EQ(ev.find("not.there"), std::string::npos);
  // The shape the chrome_trace(recs, extra) overload splices verbatim.
  EXPECT_EQ(ev.substr(0, 4), "\n  {");
}

// --- shared histogram renderer ----------------------------------------------

TEST(HistogramFields, AllExportersRenderTheSameSevenFields) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("lat_ns");
  for (int i = 0; i < 50; ++i) h.add(128);
  h.add(4096);

  Sampler smp;
  smp.add_registry(&reg);
  smp.sample(1);
  const Metric* m = find(smp.samples().front(), "lat_ns");
  ASSERT_NE(m, nullptr);

  const auto fields = histogram_fields(*m);
  ASSERT_EQ(fields.size(), 7u);
  EXPECT_EQ(fields[0].first, "count");
  EXPECT_EQ(fields[0].second, 51u);
  EXPECT_EQ(fields[1].first, "sum");
  EXPECT_EQ(fields[6].first, "max");
  EXPECT_EQ(fields[6].second, 4096u);

  // The JSON exporter renders exactly those fields in that order.
  const std::string json = to_json(reg.snapshot());
  std::size_t at = json.find("\"lat_ns\"");
  ASSERT_NE(at, std::string::npos);
  for (const auto& [name, value] : fields) {
    const std::string frag =
        "\"" + std::string(name) + "\": " + std::to_string(value);
    at = json.find(frag, at);
    EXPECT_NE(at, std::string::npos) << frag << " missing/out of order";
  }
}

}  // namespace
}  // namespace vialock::obs
