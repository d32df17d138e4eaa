// span.h - sim-clock scoped spans over the virtual Clock.
//
// A span is a named [begin, end) interval of *virtual* time - the same
// deterministic time base every cost in the simulation is charged against -
// so recorded timelines are byte-identical across same-seed runs and show
// exactly where the modelled nanoseconds of a registration, a reclaim pass or
// a transfer went. Spans layer on the existing TraceRing: with mirror_to()
// set, every begin/end also drops a SpanBegin/SpanEnd event into the ring, so
// post-mortem tail dumps interleave spans with page-level events.
//
// Causal tracing (DESIGN.md section 11): every recorded span carries a
// (trace_id, span_id, parent_id) triple drawn from a per-recorder SplitMix64
// ID stream. IDs are deterministic: a recorder seeded identically and fed the
// same begin/end sequence allocates the same ids, so trace exports stay
// byte-identical across same-seed runs. Parentage resolves in order:
//   1. the innermost open span on the same track (lexical nesting), else
//   2. the top of the ambient context stack (push_context / pop_context -
//      how a remote trace context carried in-band with a message adopts the
//      spans recorded on the receiving host), else
//   3. a fresh trace_id: the span is a trace root.
// Cross-host propagation never shares allocators: hosts are seeded disjointly
// (via::Cluster::add_node) and only the *values* travel in message headers.
//
// Recording is off by default (enable(true) to arm); a disabled recorder
// costs one branch per ScopedSpan. Capacity is bounded: past `max_spans`,
// begins are dropped and counted (dropped()), never reallocated without
// bound. Unbalanced closes - end() of an invalid, unknown, or already-closed
// span - are counted no-ops (unbalanced_closes()); spans still open at export
// time simply stay out of the finished set. obs::chrome_trace() turns the
// finished spans into a chrome://tracing / Perfetto-loadable JSON timeline,
// with flow events stitching spans that share a trace_id across recorders.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/rng.h"
#include "util/trace.h"

namespace vialock::obs {

using SpanId = std::uint32_t;
inline constexpr SpanId kInvalidSpan = static_cast<SpanId>(-1);

/// The causal triple a span carries and a message propagates in-band.
/// trace_id == 0 means "no context" (the invalid sentinel; the allocator
/// never emits 0).
struct TraceContext {
  std::uint64_t trace_id = 0;   ///< whole-request identity, stable end to end
  std::uint64_t span_id = 0;    ///< the span children should name as parent
  std::uint64_t parent_id = 0;  ///< that span's own parent (0 = trace root)

  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    Nanos start = 0;
    Nanos dur = 0;
    std::uint32_t tid = 0;    ///< logical track (0 = default)
    std::uint32_t depth = 0;  ///< nesting depth within the track at begin
    bool open = true;
    std::uint64_t trace_id = 0;   ///< causal trace this span belongs to
    std::uint64_t span_id = 0;    ///< globally-unique id (per seeded stream)
    std::uint64_t parent_id = 0;  ///< span_id of the parent (0 = trace root)

    [[nodiscard]] bool closed() const { return !open; }
  };

  explicit SpanRecorder(const Clock& clock, std::size_t max_spans = 1 << 16)
      : clock_(clock), max_spans_(max_spans), ids_(kDefaultIdSeed) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Also record SpanBegin/SpanEnd events into `ring` (nullptr detaches).
  void mirror_to(TraceRing* ring) { ring_ = ring; }

  /// Reset the ID stream to `seed`. Hosts in one cluster are seeded with
  /// disjoint values so span_ids never collide across a merged export.
  void seed_ids(std::uint64_t seed) {
    id_seed_ = seed;
    ids_ = SplitMix64(seed);
  }

  /// Open a span named `name` on track `tid` at the clock's current virtual
  /// time. Returns kInvalidSpan (and records nothing) when disabled or full.
  [[nodiscard]] SpanId begin(std::string_view name, std::uint32_t tid = 0);

  /// Close `id` at the current virtual time. Closing kInvalidSpan is free;
  /// closing an unknown or already-closed id is a counted no-op.
  void end(SpanId id);

  /// Adopt `ctx` as the parent for spans that would otherwise start a fresh
  /// trace (no enclosing open span on their track). Invalid contexts are
  /// pushed too - pop_context() stays strictly balanced.
  void push_context(const TraceContext& ctx) { ctx_stack_.push_back(ctx); }
  void pop_context() {
    if (!ctx_stack_.empty()) ctx_stack_.pop_back();
  }

  /// The context a child span (or an outgoing message header) should carry:
  /// the innermost open span on `tid`, else the ambient stack top, else
  /// invalid.
  [[nodiscard]] TraceContext active_context(std::uint32_t tid = 0) const;

  /// The causal triple of a recorded span (invalid for kInvalidSpan).
  [[nodiscard]] TraceContext context_of(SpanId id) const;

  /// All spans in begin order (open ones included; exporters skip them).
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t open_spans() const { return open_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t unbalanced_closes() const {
    return unbalanced_closes_;
  }
  [[nodiscard]] const Clock& clock() const { return clock_; }

  void clear() {
    spans_.clear();
    tracks_.clear();
    ctx_stack_.clear();
    open_ = 0;
    dropped_ = 0;
    unbalanced_closes_ = 0;
    ids_ = SplitMix64(id_seed_);
  }

 private:
  static constexpr std::uint64_t kDefaultIdSeed = 0x5649414C4F434BULL; // "VIALOCK"

  /// The open-span stack for `tid`, created on demand. Flat vector (tracks
  /// are few: one per pid at most), insertion-ordered for determinism.
  std::vector<SpanId>& track(std::uint32_t tid);
  [[nodiscard]] const std::vector<SpanId>* find_track(std::uint32_t tid) const;

  /// Next nonzero id from the seeded stream (0 is the invalid sentinel).
  std::uint64_t next_id() {
    std::uint64_t v = ids_.next();
    while (v == 0) v = ids_.next();
    return v;
  }

  const Clock& clock_;
  std::size_t max_spans_;
  bool enabled_ = false;
  TraceRing* ring_ = nullptr;
  std::vector<Span> spans_;
  std::vector<std::pair<std::uint32_t, std::vector<SpanId>>> tracks_;
  std::vector<TraceContext> ctx_stack_;
  std::size_t open_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t unbalanced_closes_ = 0;
  std::uint64_t id_seed_ = kDefaultIdSeed;
  SplitMix64 ids_;
};

/// RAII span: opens at construction, closes when the scope exits. One branch
/// when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string_view name, std::uint32_t tid = 0)
      : rec_(rec), id_(rec.enabled() ? rec.begin(name, tid) : kInvalidSpan) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { rec_.end(id_); }

  [[nodiscard]] SpanId id() const { return id_; }

  /// The causal triple this span carries (invalid when disabled/dropped).
  [[nodiscard]] TraceContext context() const { return rec_.context_of(id_); }
  /// The context work this span causes elsewhere carries: the span's own,
  /// or the recorder's ambient context when the span is not recorded.
  [[nodiscard]] TraceContext carried_context() const {
    const TraceContext own = context();
    return own.valid() ? own : rec_.active_context();
  }

 private:
  SpanRecorder& rec_;
  SpanId id_;
};

/// RAII ambient context: push_context at construction, pop at scope exit.
/// Pushes only valid contexts onto enabled recorders (free otherwise), so a
/// disabled observability stack stays one branch per site.
class ScopedTraceContext {
 public:
  ScopedTraceContext(SpanRecorder& rec, const TraceContext& ctx)
      : rec_(rec), pushed_(rec.enabled() && ctx.valid()) {
    if (pushed_) rec_.push_context(ctx);
  }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  ~ScopedTraceContext() {
    if (pushed_) rec_.pop_context();
  }

 private:
  SpanRecorder& rec_;
  bool pushed_;
};

}  // namespace vialock::obs
