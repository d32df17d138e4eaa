// span_test.cc - sim-clock spans: nesting, unbalanced-close handling,
// capacity bounds, TraceRing mirroring and chrome-trace JSON well-formedness.
#include "obs/span.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "obs/export.h"
#include "util/clock.h"
#include "util/trace.h"

namespace vialock::obs {
namespace {

// --- a minimal JSON well-formedness checker ---------------------------------
// Syntax only (objects, arrays, strings, numbers, literals); enough to prove
// the hand-rendered exports parse. Rejects trailing garbage.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (!expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return expect('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(JsonCheckerSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a": [1, 2.5, "x\"y", true, null]})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a": )").valid());
  EXPECT_FALSE(JsonChecker(R"({"a": 1} trailing)").valid());
  EXPECT_FALSE(JsonChecker(R"([1, 2,])").valid());
}

// --- spans -------------------------------------------------------------------

TEST(SpanRecorder, DisabledRecordsNothing) {
  Clock clock;
  SpanRecorder rec(clock);
  EXPECT_EQ(rec.begin("x"), kInvalidSpan);
  { const ScopedSpan s(rec, "scoped"); }
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_EQ(rec.unbalanced_closes(), 0u) << "ending kInvalidSpan is free";
}

TEST(SpanRecorder, NestingDepthsAndDurations) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);

  const SpanId outer = rec.begin("outer");
  clock.advance(100);
  const SpanId inner = rec.begin("inner");
  clock.advance(40);
  rec.end(inner);
  clock.advance(10);
  rec.end(outer);

  ASSERT_EQ(rec.spans().size(), 2u);
  const auto& so = rec.spans()[0];
  const auto& si = rec.spans()[1];
  EXPECT_EQ(so.name, "outer");
  EXPECT_EQ(so.depth, 0u);
  EXPECT_EQ(so.start, 0u);
  EXPECT_EQ(so.dur, 150u);
  EXPECT_EQ(si.depth, 1u);
  EXPECT_EQ(si.start, 100u);
  EXPECT_EQ(si.dur, 40u);
  EXPECT_EQ(rec.open_spans(), 0u);
}

TEST(SpanRecorder, SeparateTracksNestIndependently) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  const SpanId a = rec.begin("a", /*tid=*/1);
  const SpanId b = rec.begin("b", /*tid=*/2);
  EXPECT_EQ(rec.spans()[0].depth, 0u);
  EXPECT_EQ(rec.spans()[1].depth, 0u) << "tracks have independent depth";
  rec.end(a);
  rec.end(b);
}

TEST(SpanRecorder, UnbalancedClosesAreCountedNoops) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  const SpanId a = rec.begin("a");
  rec.end(a);
  rec.end(a);           // double close
  rec.end(12345);       // unknown id
  rec.end(kInvalidSpan);  // free (the disabled-ScopedSpan path)
  EXPECT_EQ(rec.unbalanced_closes(), 2u);
  EXPECT_EQ(rec.open_spans(), 0u);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_TRUE(rec.spans()[0].closed());
}

TEST(SpanRecorder, CapacityBoundsAndDropCounting) {
  Clock clock;
  SpanRecorder rec(clock, /*max_spans=*/2);
  rec.enable(true);
  const SpanId a = rec.begin("a");
  const SpanId b = rec.begin("b");
  const SpanId c = rec.begin("c");  // over capacity
  EXPECT_EQ(c, kInvalidSpan);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_EQ(rec.spans().size(), 2u);
  rec.end(a);
  rec.end(b);
  rec.end(c);  // dropped span: free no-op
  EXPECT_EQ(rec.unbalanced_closes(), 0u);
}

TEST(SpanRecorder, MirrorsToTraceRing) {
  Clock clock;
  TraceRing ring(8);
  ring.enable(true);
  SpanRecorder rec(clock);
  rec.enable(true);
  rec.mirror_to(&ring);
  const SpanId a = rec.begin("x");
  clock.advance(5);
  rec.end(a);
  const auto events = ring.tail();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].event, TraceEvent::SpanBegin);
  EXPECT_EQ(events[1].event, TraceEvent::SpanEnd);
}

TEST(ChromeTrace, WellFormedAndSkipsOpenSpans) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  const SpanId done = rec.begin("done \"quoted\\name\"");
  clock.advance(1234);
  rec.end(done);
  (void)rec.begin("still-open");

  const std::string json = chrome_trace(rec);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 0.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1.234"), std::string::npos);
  EXPECT_EQ(json.find("still-open"), std::string::npos)
      << "open spans stay out of the export";
}

TEST(ChromeTrace, EmptyRecorderStillParses) {
  Clock clock;
  SpanRecorder rec(clock);
  EXPECT_TRUE(JsonChecker(chrome_trace(rec)).valid());
}

// --- causal trace contexts ---------------------------------------------------

TEST(TraceContext, NestedSpansShareTraceAndChainParents) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  const SpanId outer = rec.begin("outer");
  const SpanId inner = rec.begin("inner");
  rec.end(inner);
  rec.end(outer);

  const auto& so = rec.spans()[0];
  const auto& si = rec.spans()[1];
  EXPECT_NE(so.trace_id, 0u);
  EXPECT_NE(so.span_id, 0u);
  EXPECT_EQ(so.parent_id, 0u) << "no enclosing span: a trace root";
  EXPECT_EQ(si.trace_id, so.trace_id);
  EXPECT_EQ(si.parent_id, so.span_id);
  EXPECT_NE(si.span_id, so.span_id);
}

TEST(TraceContext, SiblingRootsGetDistinctTraces) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  const SpanId a = rec.begin("a");
  rec.end(a);
  const SpanId b = rec.begin("b");
  rec.end(b);
  EXPECT_NE(rec.spans()[0].trace_id, rec.spans()[1].trace_id);
}

TEST(TraceContext, IdsAreDeterministicPerSeed) {
  Clock clock;
  auto run = [&clock](std::uint64_t seed) {
    SpanRecorder rec(clock);
    rec.seed_ids(seed);
    rec.enable(true);
    const SpanId outer = rec.begin("outer");
    const SpanId inner = rec.begin("inner");
    rec.end(inner);
    rec.end(outer);
    return std::make_pair(rec.spans()[0].trace_id, rec.spans()[1].span_id);
  };
  EXPECT_EQ(run(7), run(7)) << "same seed, same id stream";
  EXPECT_NE(run(7), run(8)) << "disjoint seeds, disjoint streams";
}

TEST(TraceContext, AmbientContextAdoptsRemoteParent) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  // What a receiving host does with the (trace_id, span_id) pulled out of an
  // arrived message header.
  rec.push_context(TraceContext{0xAAAA, 0xBBBB, 0});
  const SpanId adopted = rec.begin("rx");
  rec.end(adopted);
  rec.pop_context();
  const SpanId fresh = rec.begin("later");
  rec.end(fresh);

  EXPECT_EQ(rec.spans()[0].trace_id, 0xAAAAu);
  EXPECT_EQ(rec.spans()[0].parent_id, 0xBBBBu);
  EXPECT_NE(rec.spans()[1].trace_id, 0xAAAAu)
      << "popped context no longer applies";
  EXPECT_EQ(rec.spans()[1].parent_id, 0u);
}

TEST(TraceContext, EnclosingSpanWinsOverAmbientContext) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  const SpanId outer = rec.begin("outer");
  rec.push_context(TraceContext{0xAAAA, 0xBBBB, 0});
  const SpanId inner = rec.begin("inner");
  rec.end(inner);
  rec.pop_context();
  rec.end(outer);
  EXPECT_EQ(rec.spans()[1].trace_id, rec.spans()[0].trace_id)
      << "lexical nesting outranks the ambient stack";
  EXPECT_EQ(rec.spans()[1].parent_id, rec.spans()[0].span_id);
}

TEST(TraceContext, ActiveContextResolvesStackThenAmbient) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  EXPECT_FALSE(rec.active_context().valid());
  rec.push_context(TraceContext{0xAAAA, 0xBBBB, 0});
  EXPECT_EQ(rec.active_context().trace_id, 0xAAAAu);
  EXPECT_EQ(rec.active_context().span_id, 0xBBBBu);
  const SpanId s = rec.begin("s");
  EXPECT_EQ(rec.active_context().span_id, rec.spans()[0].span_id)
      << "an open span is the innermost context";
  rec.end(s);
  rec.pop_context();
  EXPECT_FALSE(rec.active_context().valid());
}

TEST(TraceContext, RetransmitsAreChildrenOfTheFrameSpan) {
  // The reliable-transport pattern: one enclosing frame span stays open
  // across all attempts; each attempt (send, then retransmits) is a child.
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  {
    const ScopedSpan frame(rec, "msg.frame");
    { const ScopedSpan attempt(rec, "msg.send"); }
    { const ScopedSpan retry(rec, "msg.retransmit"); }
  }
  ASSERT_EQ(rec.spans().size(), 3u);
  const auto& frame = rec.spans()[0];
  EXPECT_EQ(rec.spans()[1].parent_id, frame.span_id);
  EXPECT_EQ(rec.spans()[2].parent_id, frame.span_id);
  EXPECT_EQ(rec.spans()[1].trace_id, frame.trace_id);
  EXPECT_EQ(rec.spans()[2].trace_id, frame.trace_id);
}

TEST(TraceContext, ScopedTraceContextIsFreeWhenDisabledOrInvalid) {
  Clock clock;
  SpanRecorder rec(clock);
  {
    const ScopedTraceContext off(rec, TraceContext{1, 2, 0});
    EXPECT_FALSE(rec.active_context().valid()) << "disabled: nothing pushed";
  }
  rec.enable(true);
  {
    const ScopedTraceContext invalid(rec, TraceContext{});
    EXPECT_FALSE(rec.active_context().valid()) << "invalid ctx: not pushed";
  }
  {
    const ScopedTraceContext on(rec, TraceContext{1, 2, 0});
    EXPECT_TRUE(rec.active_context().valid());
  }
  EXPECT_FALSE(rec.active_context().valid()) << "popped at scope exit";
}

// --- flow events in the merged chrome trace ----------------------------------

/// Renders `v` the way the exporter does ("0x" + lowercase hex).
std::string hex_id(std::uint64_t v) {
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const auto nibble = static_cast<unsigned>((v >> shift) & 0xF);
    if (nibble == 0 && !started && shift != 0) continue;
    started = true;
    out += "0123456789abcdef"[nibble];
  }
  return out;
}

TEST(ChromeTrace, FlowEventsStitchTracesAcrossRecorders) {
  Clock clock;
  SpanRecorder host0(clock);
  SpanRecorder host1(clock);
  host0.seed_ids(1);
  host1.seed_ids(2);
  host0.enable(true);
  host1.enable(true);

  // Host 0 sends (one root span), host 1 adopts the in-band context.
  const SpanId send = host0.begin("send");
  clock.advance(10);
  host1.push_context(host0.active_context());
  const SpanId recv = host1.begin("recv");
  clock.advance(5);
  host1.end(recv);
  host1.pop_context();
  host0.end(send);

  const std::uint64_t trace_id = host0.spans()[0].trace_id;
  ASSERT_EQ(host1.spans()[0].trace_id, trace_id);

  const std::string json = chrome_trace({&host0, &host1});
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  const std::string id = "\"id\": \"" + hex_id(trace_id) + "\"";
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find(id), std::string::npos)
      << "flow events carry the trace id";
}

TEST(ChromeTrace, SingleRecorderTraceGetsNoFlowEvents) {
  Clock clock;
  SpanRecorder rec(clock);
  rec.enable(true);
  const SpanId a = rec.begin("a");
  const SpanId b = rec.begin("b");
  rec.end(b);
  rec.end(a);
  const std::string json = chrome_trace({&rec});
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(json.find("\"ph\": \"s\""), std::string::npos)
      << "a trace confined to one host needs no flow arrows";
}

}  // namespace
}  // namespace vialock::obs
