#pragma once

/// \file protocol.h
/// Protocol v1 — the versioned, transport-agnostic wire API of the serve
/// layer (full specification in docs/PROTOCOL.md).
///
/// Framing is one JSON object per LF-terminated line over any
/// `serve::Connection` (stdio, pipes, TCP).  Requests carry an explicit
/// versioned envelope and responses are correlated by `id` in **completion
/// order** — a slow request never blocks the responses behind it:
///
///   -> {"v": 1, "id": "r1", "method": "eval", "params": {...}}
///   <- {"v": 1, "id": "r1", "ok": true, "result": {...}}
///   <- {"v": 1, "id": "r2", "ok": false,
///       "error": {"code": "overload", "message": "..."}}
///
/// Methods: `hello`, `eval`, `eval_batch`, `metrics`, `backends`,
/// `experiments`, `experiment`, `ping`, `reconfigure`, `trace`, `drain`.
/// Failures carry typed error codes (`ErrorCode` below) instead of
/// free-form strings.  Request envelopes may carry an optional `trace_id`
/// field correlating client- and server-side trace spans
/// (docs/OBSERVABILITY.md).
///
/// `hello` — sent as the *first* frame of a session — negotiates the wire
/// version: when both sides speak Protocol v2, the ok response is the
/// session's last JSON line and the connection switches to the binary
/// frame format of `serve/wire/` (docs/PROTOCOL.md#protocol-v2).  Old
/// servers answer `unknown_method` and old clients never send hello, so
/// both directions fall back to v1 JSON byte-for-byte.
///
/// The pre-v1 JSON-lines mode (bare EvalRequest / `{"id", "priority",
/// "timeout_ms", "request"}` lines answered in arrival order) is preserved
/// behind auto-detection: the first frame of a session decides — an object
/// with a `"v"` key speaks Protocol v1, anything else gets the legacy loop
/// (`server_loop.h`).  `run_serve_connection` below is that entry point;
/// `defa_serve` uses it for stdio and for every accepted TCP client.

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "serve/scheduler.h"
#include "serve/transport.h"

namespace defa::serve {

/// The wire version this build speaks.
inline constexpr int kProtocolVersion = 1;

// ------------------------------------------------------------------ ErrorCode

/// Typed failure codes of Protocol v1 error responses.
enum class ErrorCode {
  kParse,          ///< frame is not valid JSON
  kValidation,     ///< frame parsed but envelope/params are malformed
  kVersion,        ///< missing `"v"` or `"v"` != kProtocolVersion
  kUnknownMethod,  ///< method name not in the table above
  kOversized,      ///< frame longer than ProtocolOptions::max_frame_bytes
  kOverload,       ///< scheduler admission queue full
  kDeadline,       ///< deadline expired before dispatch
  kShutdown,       ///< server draining; request not admitted
  kInternal,       ///< evaluation threw
  kTransport,      ///< client side only: connection lost mid-call
};

[[nodiscard]] const char* error_code_name(ErrorCode c);
/// nullopt on an unknown name.
[[nodiscard]] std::optional<ErrorCode> error_code_from_name(const std::string& name);

/// The error code a non-ok scheduler response maps to on the wire.
[[nodiscard]] ErrorCode error_code_for(ResponseStatus s);
/// Inverse mapping (client side): the scheduler status an error code
/// round-trips to.  Protocol-level codes (parse/validation/version/...)
/// all map to kBadRequest.
[[nodiscard]] ResponseStatus status_for(ErrorCode c);

// --------------------------------------------------------------------- frames

/// `{"v": 1, "id": id, "method": method, "params": params}` (params
/// omitted when null).  `trace_id` (16 hex digits, see
/// docs/OBSERVABILITY.md) is an optional envelope field propagating the
/// client's trace context — servers that predate it reject the envelope,
/// so clients only attach it for sampled requests; tracing-enabled servers
/// record the request's server-side spans under the same id.
[[nodiscard]] api::Json make_request_frame(const std::string& id,
                                           const std::string& method,
                                           api::Json params,
                                           const std::string& trace_id = "");
/// `{"v": 1, "id": id, "ok": true, "result": result}`.
[[nodiscard]] api::Json make_ok_frame(const std::string& id, api::Json result);
/// `{"v": 1, "id": id, "ok": false, "error": {"code", "message"}}`.
[[nodiscard]] api::Json make_error_frame(const std::string& id, ErrorCode code,
                                         const std::string& message);

/// The `eval` result payload of a completed (kOk) response:
/// `{"queue_ms", "run_ms", "total_ms", "dispatch_index", "result"}`.
[[nodiscard]] api::Json eval_result_payload(const ServeResponse& r);
/// The whole response frame for an eval-path ServeResponse: an ok frame
/// for kOk, else an error frame whose `error` object also carries the
/// timing fields (`queue_ms`, `total_ms`).
[[nodiscard]] api::Json eval_response_frame(const std::string& id,
                                            const ServeResponse& r);
/// Client-side inverse of `eval_response_frame`: rebuild the
/// ServeResponse (status, result, error message, server-side timings)
/// from a v1 response frame.  Throws defa::CheckError on a malformed
/// frame.
[[nodiscard]] ServeResponse serve_response_from_frame(const api::Json& frame);

/// Parse the `eval` params: either a bare EvalRequest object or an
/// envelope `{"request", "priority", "timeout_ms"}` (the frame `id` is
/// authoritative, so an `"id"` key inside params is rejected).  The
/// returned request is validated.  Throws defa::CheckError.
[[nodiscard]] ServeRequest eval_request_from_params(const api::Json& params);

/// Parse the `reconfigure` params (`{"policy", "locality_window",
/// "backend", "max_contexts", "max_memo", "memoize_results",
/// "reset_stats"}`, all optional but at least one required).  Strict:
/// unknown keys, unknown policy/backend names and out-of-range values
/// throw defa::CheckError.  The inverse, `reconfig_params`, builds the
/// params frame a client sends (unset fields omitted).
[[nodiscard]] ServerReconfig reconfig_from_params(const api::Json& params);
[[nodiscard]] api::Json reconfig_params(const ServerReconfig& rc);

// ------------------------------------------------------------------- sessions

struct ProtocolOptions {
  /// Frames longer than this are refused with an `oversized` error
  /// (the line itself is still consumed, so the session keeps going).
  /// Applies to v1 lines and v2 binary payloads alike.
  std::size_t max_frame_bytes = 4u << 20;
  /// The highest wire version `hello` may negotiate (1 pins the session
  /// to JSON framing — `defa_serve --max-wire 1` forces the fallback).
  int max_wire_version = 2;
  /// v2 streaming eval_batch: how many items may be in flight or buffered
  /// ahead of the next in-order chunk flush.  Bounds the per-batch result
  /// memory by the window, not the batch size.
  std::size_t stream_window = 32;
  /// Invoked after a `drain` method completed (server idle, response
  /// written).  `defa_serve --listen` closes its accept loop here so one
  /// client's drain stops the whole process.
  std::function<void()> on_drain;
};

/// Outcome of one served session (either mode).
struct SessionResult {
  int bad_frames = 0;   ///< frames answered with a protocol-level error
  bool drained = false; ///< session ended via the `drain` method
  bool legacy = false;  ///< auto-detection chose the legacy JSON-lines loop
  int wire_version = 1; ///< 2 once a hello handshake upgraded the session
};

/// Serve one Protocol v1 session until EOF or `drain`.  Eval responses
/// are written in completion order from evaluator threads; admin methods
/// answer inline.  Returns after every in-flight response of this session
/// has been written (or dropped on a vanished peer).  `first_frame`, when
/// set, is processed as if it were read from `conn` (the auto-detection
/// peek hands it in).
SessionResult run_protocol_session(Connection& conn, Server& server,
                                   const ProtocolOptions& options,
                                   const std::string* first_frame = nullptr);

/// Dispatch one inline admin method — everything except the async eval
/// paths (`eval`, `eval_batch`), the session-terminating `drain` and the
/// handshake `hello` — and return its ok-result payload.  Sets `known` to
/// false (and returns null) on an unrecognized name.  Shared by the v1
/// session loop and the v2 binary session (`serve/wire/session.h`), so
/// both protocol versions answer admin calls from one implementation.
/// Throws defa::CheckError on malformed params.
[[nodiscard]] api::Json dispatch_admin_method(const std::string& method,
                                              const api::Json& params,
                                              Server& server, bool& known);

/// Serve one connection in whichever mode its first frame selects:
/// Protocol v1 (`"v"` key present) or the legacy arrival-order JSON-lines
/// loop.  Never drains `server` itself (it may be shared across
/// connections) — except through the protocol `drain` method.
SessionResult run_serve_connection(Connection& conn, Server& server,
                                   const ProtocolOptions& options = {});

}  // namespace defa::serve
