// export.h - the three exporters over the observability substrate
// (DESIGN.md section 10):
//
//   to_proc_text   - "name value" lines in name order, the text a bench's
//                    `--metrics` prints under its /proc/metrics header. A
//                    histogram renders as .count/.sum/.p50/.p99/.p999/.max
//                    lines.
//   to_json        - machine-readable snapshot, following bench::JsonReport's
//                    conventions (hand-rendered, escaped, byte-stable).
//   chrome_trace   - the finished spans of a SpanRecorder as a trace_event
//                    JSON document ({"traceEvents": [...]}) loadable in
//                    chrome://tracing or https://ui.perfetto.dev. Timestamps
//                    are virtual microseconds rendered by integer math (no
//                    float formatting), so exports are byte-identical across
//                    same-seed runs. Each X event carries the span's causal
//                    triple in args ("trace"/"span"/"parent", hex).
//
// The multi-recorder chrome_trace overload merges several hosts' recorders
// into one document (pid = recorder index) and stitches every trace that
// crosses recorders with flow events (ph "s"/"t"/"f", DESIGN.md section 11):
// the spans of one trace_id, ordered by virtual start time, become one
// connected arrow chain across endpoints.
#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace vialock::obs {

/// The seven scalar fields a histogram exports, in canonical order (count,
/// sum, p50, p95, p99, p999, max). Every exporter renders from this one
/// list, so a new quantile cannot silently diverge between them.
[[nodiscard]] std::array<std::pair<std::string_view, std::uint64_t>, 7>
histogram_fields(const Metric& m);

/// histogram_fields(m) as JSON object members: `, "count": c, ..., "max": x`
/// (leading comma included) - shared by to_json and the flight recorder.
void append_histogram_json(std::ostream& os, const Metric& m);

/// Virtual nanoseconds as decimal microseconds ("12.345"), integer math
/// only - the chrome-trace timestamp format.
[[nodiscard]] std::string trace_micros(Nanos ns);

[[nodiscard]] std::string to_proc_text(const Snapshot& snap);

[[nodiscard]] std::string to_json(const Snapshot& snap);

[[nodiscard]] std::string chrome_trace(const SpanRecorder& rec);

/// Merged export: one document over several recorders (pid = index into
/// `recs`), with flow events stitching traces that span multiple recorders.
[[nodiscard]] std::string chrome_trace(
    const std::vector<const SpanRecorder*>& recs);

/// Merged export with pre-rendered extra events (the sampler's counter-event
/// overlay) spliced into the traceEvents array. `extra_events` must be zero
/// or more complete event objects, each prefixed "\n  " and separated by
/// commas, with no leading or trailing comma (Sampler::chrome_counter_events
/// renders exactly that shape).
[[nodiscard]] std::string chrome_trace(
    const std::vector<const SpanRecorder*>& recs,
    std::string_view extra_events);

/// JSON string literal with the repo's escaping rules (", \, newline).
[[nodiscard]] std::string json_quote(std::string_view s);

/// Lowercase 0x-prefixed hex (no leading zeros; "0x0" for zero).
[[nodiscard]] std::string json_hex(std::uint64_t v);

}  // namespace vialock::obs
