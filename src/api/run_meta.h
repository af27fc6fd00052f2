#pragma once

/// \file run_meta.h
/// Provenance stamp for benchmark artifacts.  Every BENCH_*.json embeds a
/// `meta` object so a result file is self-describing: when it ran, on
/// which host, and (added by each emitter) the kernel backend and dispatch
/// policy that produced it.  Schema in
/// docs/BENCH_SCHEMA.md.

#include "api/result_io.h"

namespace defa::api {

/// {"timestamp": "<ISO-8601 UTC, e.g. 2026-08-08T14:03:11Z>",
///  "hostname": "<gethostname(), or "unknown" if the call fails>"}.
/// Callers append run-specific keys (backend, policy, ...) before
/// embedding the object under the report's `meta` key.
[[nodiscard]] Json run_metadata();

}  // namespace defa::api
