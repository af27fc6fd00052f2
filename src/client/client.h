#pragma once

/// \file client.h
/// `defa::client::Client` — the Protocol v1 client library
/// (docs/PROTOCOL.md).  Connects to a `defa_serve` process over TCP
/// (`--listen`) or over the stdio of a child process it spawns itself,
/// and exposes the wire methods as typed calls:
///
///   client::Client c = client::Client::connect("127.0.0.1:7411");
///   api::EvalRequest req;
///   req.preset = "tiny";
///   api::EvalResult result = c.eval(req);          // sync, throws RpcError
///
///   std::future<serve::ServeResponse> f = c.submit(r2);  // pipelined
///
/// Requests are **pipelined**: `submit()` writes the frame and returns a
/// future immediately, any number may be in flight, and a background
/// reader correlates completion-order responses back by frame id — so one
/// client connection saturates a multi-worker server.  All methods are
/// thread-safe (writes are serialized; the reader owns the socket's read
/// side).
///
/// Scheduler rejections (overload/deadline/shutdown) come back as
/// statuses in the returned `ServeResponse`, mirroring the in-process
/// `serve::Server::submit` contract; the convenience `eval()` wrapper
/// turns any non-ok outcome into a typed `RpcError` instead.

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "api/request.h"
#include "serve/protocol.h"

namespace defa::client {

/// Typed RPC failure: the protocol error code plus the server's message
/// (`code() == serve::ErrorCode::kTransport` when the connection died).
class RpcError : public std::runtime_error {
 public:
  RpcError(serve::ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  [[nodiscard]] serve::ErrorCode code() const noexcept { return code_; }

 private:
  serve::ErrorCode code_;
};

/// Per-connection client behavior: which wire to speak and how deep to
/// pipeline.
struct ClientOptions {
  enum class Wire {
    kAuto,  ///< send `hello`; fall back to v1 when the server declines
    kV1,    ///< never send `hello` (byte-for-byte the pre-v2 client)
    kV2,    ///< require the binary wire; construction throws RpcError
            ///< (kVersion) when the server cannot negotiate it
  };
  Wire wire = Wire::kAuto;
  /// Pipelining depth: at most this many request frames on the wire at
  /// once — further submits queue client-side (pre-encoded) and flush as
  /// responses complete.  0 = unlimited (the pre-v2 behavior).
  int max_inflight = 0;
};

class Client {
 public:
  /// Adopt an established connection (tests hand in loopback sockets).
  /// Negotiation (per `options.wire`) runs synchronously here, before the
  /// reader thread starts.
  explicit Client(std::unique_ptr<serve::Connection> conn,
                  const ClientOptions& options = {});
  ~Client();  ///< fails pending calls, joins the reader, closes
  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Response sink for `submit_async`; invoked exactly once, on the reader
  /// thread for wire responses or the submitting thread for local
  /// failures.
  using ResponseCallback = std::function<void(const serve::ServeResponse&)>;

  /// TCP-connect to "HOST:PORT" (":PORT"/"PORT" default to loopback).
  [[nodiscard]] static Client connect(const std::string& endpoint,
                                      const ClientOptions& options = {});
  [[nodiscard]] static Client connect_tcp(const std::string& host, int port,
                                          const ClientOptions& options = {});
  /// Spawn `argv` (e.g. {"./build/defa_serve"}) as a child process and
  /// speak the negotiated protocol over its stdin/stdout.  The child is
  /// terminated (stdin closed, then waited) when the Client is destroyed.
  [[nodiscard]] static Client spawn(const std::vector<std::string>& argv,
                                    const ClientOptions& options = {});

  // ---- pipelined eval ----------------------------------------------------
  /// Send one eval frame; the future resolves when its response arrives
  /// (any number may be in flight).  `req.id` is echoed back in the
  /// response; correlation uses internal wire ids, so duplicate ids are
  /// fine.  `total_ms` in the response is the client-observed round trip
  /// (queue_ms/run_ms/dispatch_index stay server-reported).  Transport
  /// loss — the peer closing with the call in flight included — resolves
  /// the future promptly with status kError and `error_code`
  /// "transport"; the future never hangs and submit never throws for it.
  [[nodiscard]] std::future<serve::ServeResponse> submit(serve::ServeRequest req);

  /// Callback flavor of `submit` (same semantics), for callers that keep
  /// many requests in flight without a thread blocked per future.
  void submit_async(serve::ServeRequest req, ResponseCallback done);

  /// Sync eval; returns the full response envelope.
  [[nodiscard]] serve::ServeResponse eval_response(
      const api::EvalRequest& req, serve::Priority priority = serve::Priority::kNormal,
      double timeout_ms = 0);

  /// Sync eval; returns the result or throws RpcError on any non-ok
  /// outcome (including scheduler rejections).
  [[nodiscard]] api::EvalResult eval(const api::EvalRequest& req);

  /// One `eval_batch` frame: all requests evaluated server-side, one
  /// response per request in request order.  Throws RpcError when the
  /// batch itself fails (transport, malformed params); per-item failures
  /// come back as statuses.
  [[nodiscard]] std::vector<serve::ServeResponse> eval_batch(
      const std::vector<api::EvalRequest>& requests,
      serve::Priority priority = serve::Priority::kNormal, double timeout_ms = 0);

  /// Per-item sink for `eval_batch_stream`; invoked on the reader thread
  /// in strict index order (0, 1, 2, ...).
  using BatchItemCallback =
      std::function<void(std::size_t index, const serve::ServeResponse&)>;

  /// Streaming flavor of `eval_batch`: on the v2 wire each item's
  /// response is a separate chunk frame, so `on_item` fires as items
  /// complete server-side — the first result arrives while the tail of a
  /// large batch is still running, and neither side buffers the whole
  /// batch.  On a v1 session the server answers in one frame, so the
  /// callbacks all fire when it lands (same order, no early delivery).
  /// Returns the full in-order response vector either way.
  [[nodiscard]] std::vector<serve::ServeResponse> eval_batch_stream(
      const std::vector<api::EvalRequest>& requests, BatchItemCallback on_item,
      serve::Priority priority = serve::Priority::kNormal, double timeout_ms = 0);

  // ---- admin methods -----------------------------------------------------
  /// Generic sync RPC: returns the `result` payload or throws RpcError.
  api::Json call(const std::string& method, api::Json params = {});

  /// Round trip returning the server's info block (policy, workers,
  /// queue_capacity, backend, draining).
  api::Json ping();
  /// The server's live metrics, parsed back into a snapshot.
  [[nodiscard]] serve::MetricsSnapshot metrics();
  /// Registered backend names on the server.
  [[nodiscard]] std::vector<std::string> backends();
  /// The server's experiment registry ({"experiments": [...]}).
  api::Json experiments();
  /// Run one registered experiment server-side; returns {"name",
  /// "tables", "json"} (defa_cli run --connect prints "tables" verbatim).
  api::Json run_experiment(const std::string& name);
  /// Apply a live configuration change on the server (between dispatches;
  /// see `serve::ServerReconfig`).  Returns {"reconfigured": true,
  /// "server": <info block>}; throws RpcError on validation failure.
  api::Json reconfigure(const serve::ServerReconfig& rc);
  /// Drain the server's recorded trace spans: {"pid", "process",
  /// "enabled", "dropped", "traceEvents"} in Chrome trace-event form
  /// (docs/OBSERVABILITY.md).  `clear=false` leaves the spans buffered.
  api::Json trace(bool clear = true);
  /// Graceful server shutdown: stop admitting, finish in-flight, return
  /// final metrics ({"drained": true, "metrics": ...}).
  api::Json drain();

  /// "tcp" | "stdio" — stamped into remote load reports.
  [[nodiscard]] const char* transport_name() const noexcept;

  /// The negotiated wire version of this connection: 2 after a successful
  /// hello upgrade, else 1.  Stamped into remote load reports.
  [[nodiscard]] int wire_version() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace defa::client
