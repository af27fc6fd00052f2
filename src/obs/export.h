#pragma once

/// \file export.h
/// Chrome trace-event / Perfetto export for `obs::Tracer` spans, plus the
/// multi-process merge used by `defa_loadgen --connect --trace-out`
/// (docs/OBSERVABILITY.md).
///
/// The emitted document is the Trace Event Format JSON object form:
///
///   {"displayTimeUnit": "ms",
///    "traceEvents": [
///      {"name":"process_name","ph":"M","pid":P,"tid":0,
///       "args":{"name":"defa_serve"}},
///      {"name":"run","cat":"serve","ph":"X","ts":123,"dur":456,
///       "pid":P,"tid":T,"args":{"trace_id":"00f3..."}},
///      {"name":"rpc","cat":"client","ph":"X", ...}, ...]}
///
/// `ts`/`dur` are microseconds on the machine-wide monotonic clock, so
/// events exported by different processes on one host share a timeline.
/// Duration spans are complete events (ph "X"); instants are ph "i".
/// `args.trace_id` (16 hex digits) joins client- and server-side spans of
/// the same request; events without a request context omit it.

#include <string>
#include <vector>

#include "api/result_io.h"
#include "obs/trace.h"

namespace defa::obs {

/// Spans -> `traceEvents` array (metadata naming event first).  `pid` is
/// the Chrome-trace process id lane, normally the recording process's real
/// pid.
[[nodiscard]] api::Json trace_events_json(const std::vector<Span>& spans,
                                          int pid,
                                          const std::string& process_name);

/// One process lane of a merged trace.
struct TraceProcess {
  int pid = 0;
  std::string name;
  /// Either a `traceEvents` array or a full document containing one; the
  /// events' `pid` fields are rewritten to `pid` on merge.
  api::Json events;
};

/// Merge per-process event lists into one loadable document.
[[nodiscard]] api::Json merge_trace_processes(
    const std::vector<TraceProcess>& processes);

/// Wrap a single `traceEvents` array into the document form.
[[nodiscard]] api::Json trace_document(api::Json trace_events);

/// Pretty-print `doc` to `path` (throws defa::CheckError on I/O failure).
void write_trace_file(const std::string& path, const api::Json& doc);

}  // namespace defa::obs
