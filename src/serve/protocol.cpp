#include "serve/protocol.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include <unistd.h>

#include "api/registry.h"
#include "api/request.h"
#include "common/check.h"
#include "kernels/backend.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/server_loop.h"
#include "serve/wire/format.h"
#include "serve/wire/session.h"
#include "serve/wire/stats.h"

namespace defa::serve {

// ------------------------------------------------------------------ ErrorCode

const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kValidation: return "validation";
    case ErrorCode::kVersion: return "version";
    case ErrorCode::kUnknownMethod: return "unknown_method";
    case ErrorCode::kOversized: return "oversized";
    case ErrorCode::kOverload: return "overload";
    case ErrorCode::kDeadline: return "deadline";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kTransport: return "transport";
  }
  return "internal";
}

std::optional<ErrorCode> error_code_from_name(const std::string& name) {
  for (const ErrorCode c :
       {ErrorCode::kParse, ErrorCode::kValidation, ErrorCode::kVersion,
        ErrorCode::kUnknownMethod, ErrorCode::kOversized, ErrorCode::kOverload,
        ErrorCode::kDeadline, ErrorCode::kShutdown, ErrorCode::kInternal,
        ErrorCode::kTransport}) {
    if (name == error_code_name(c)) return c;
  }
  return std::nullopt;
}

ErrorCode error_code_for(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk: return ErrorCode::kInternal;  // not an error
    case ResponseStatus::kRejectedOverload: return ErrorCode::kOverload;
    case ResponseStatus::kRejectedDeadline: return ErrorCode::kDeadline;
    case ResponseStatus::kRejectedShutdown: return ErrorCode::kShutdown;
    case ResponseStatus::kError: return ErrorCode::kInternal;
    case ResponseStatus::kBadRequest: return ErrorCode::kValidation;
  }
  return ErrorCode::kInternal;
}

ResponseStatus status_for(ErrorCode c) {
  switch (c) {
    case ErrorCode::kOverload: return ResponseStatus::kRejectedOverload;
    case ErrorCode::kDeadline: return ResponseStatus::kRejectedDeadline;
    case ErrorCode::kShutdown: return ResponseStatus::kRejectedShutdown;
    case ErrorCode::kInternal: return ResponseStatus::kError;
    case ErrorCode::kTransport: return ResponseStatus::kError;
    case ErrorCode::kParse:
    case ErrorCode::kValidation:
    case ErrorCode::kVersion:
    case ErrorCode::kUnknownMethod:
    case ErrorCode::kOversized: return ResponseStatus::kBadRequest;
  }
  return ResponseStatus::kError;
}

// --------------------------------------------------------------------- frames

api::Json make_request_frame(const std::string& id, const std::string& method,
                             api::Json params, const std::string& trace_id) {
  api::Json j = api::Json::object();
  j["v"] = kProtocolVersion;
  j["id"] = id;
  j["method"] = method;
  if (!trace_id.empty()) j["trace_id"] = trace_id;
  if (!params.is_null()) j["params"] = std::move(params);
  return j;
}

api::Json make_ok_frame(const std::string& id, api::Json result) {
  api::Json j = api::Json::object();
  j["v"] = kProtocolVersion;
  j["id"] = id;
  j["ok"] = true;
  j["result"] = std::move(result);
  return j;
}

api::Json make_error_frame(const std::string& id, ErrorCode code,
                           const std::string& message) {
  api::Json j = api::Json::object();
  j["v"] = kProtocolVersion;
  j["id"] = id;
  j["ok"] = false;
  api::Json err = api::Json::object();
  err["code"] = error_code_name(code);
  err["message"] = message;
  j["error"] = std::move(err);
  return j;
}

api::Json eval_result_payload(const ServeResponse& r) {
  DEFA_CHECK(r.status == ResponseStatus::kOk && r.result.has_value(),
             "protocol: eval_result_payload needs a completed response");
  api::Json j = api::Json::object();
  j["queue_ms"] = r.queue_ms;
  j["run_ms"] = r.run_ms;
  j["total_ms"] = r.total_ms;
  j["dispatch_index"] = static_cast<double>(r.dispatch_index);
  j["result"] = api::to_json(*r.result);
  return j;
}

api::Json eval_response_frame(const std::string& id, const ServeResponse& r) {
  if (r.status == ResponseStatus::kOk) {
    return make_ok_frame(id, eval_result_payload(r));
  }
  api::Json frame = make_error_frame(id, error_code_for(r.status), r.error);
  // Scheduler-side rejections still took measurable queue time; surface it
  // so a remote client sees the same latency breakdown an in-process
  // caller would.
  api::Json& err = frame["error"];
  err["queue_ms"] = r.queue_ms;
  err["total_ms"] = r.total_ms;
  return frame;
}

ServeResponse serve_response_from_frame(const api::Json& frame) {
  DEFA_CHECK(frame.is_object(), "protocol: response frame must be an object");
  ServeResponse r;
  if (const api::Json* id = frame.find("id")) r.id = id->as_string();
  if (frame.at("ok").as_bool()) {
    const api::Json& payload = frame.at("result");
    r.status = ResponseStatus::kOk;
    r.queue_ms = payload.at("queue_ms").as_number();
    r.run_ms = payload.at("run_ms").as_number();
    r.total_ms = payload.at("total_ms").as_number();
    r.dispatch_index = payload.at("dispatch_index").as_int();
    r.result = api::eval_result_from_json(payload.at("result"));
    return r;
  }
  const api::Json& err = frame.at("error");
  const std::optional<ErrorCode> code = error_code_from_name(err.at("code").as_string());
  r.status = status_for(code.value_or(ErrorCode::kInternal));
  // Preserve the wire code verbatim: several codes collapse to the same
  // status (kInternal and kTransport both map to kError), and failover
  // logic needs the distinction the status alone loses.
  r.error_code = err.at("code").as_string();
  r.error = err.at("message").as_string();
  if (const api::Json* q = err.find("queue_ms")) r.queue_ms = q->as_number();
  if (const api::Json* t = err.find("total_ms")) r.total_ms = t->as_number();
  return r;
}

ServeRequest eval_request_from_params(const api::Json& params) {
  DEFA_CHECK(params.is_object(), "protocol: eval params must be an object");
  ServeRequest r;
  if (!params.contains("request")) {
    r.request = api::eval_request_from_json(params);  // bare EvalRequest
  } else {
    for (const auto& [key, value] : params.members()) {
      // No "id" inside params: the frame id is the correlation identity.
      DEFA_CHECK(key == "request" || key == "priority" || key == "timeout_ms",
                 "protocol: unknown eval params key '" + key + "'");
    }
    if (const api::Json* p = params.find("priority")) {
      const std::optional<Priority> pri = priority_from_name(p->as_string());
      DEFA_CHECK(pri.has_value(), "protocol: unknown priority '" + p->as_string() +
                                      "' (high|normal|low)");
      r.priority = *pri;
    }
    if (const api::Json* t = params.find("timeout_ms")) r.timeout_ms = t->as_number();
    r.request = api::eval_request_from_json(params.at("request"));
  }
  r.request.validate();
  return r;
}

ServerReconfig reconfig_from_params(const api::Json& params) {
  DEFA_CHECK(params.is_object() && params.size() > 0,
             "protocol: reconfigure params must be a non-empty object");
  ServerReconfig rc;
  for (const auto& [key, value] : params.members()) {
    if (key == "policy") {
      const std::optional<SchedulePolicy> p = policy_from_name(value.as_string());
      DEFA_CHECK(p.has_value(), "protocol: unknown policy '" + value.as_string() +
                                    "' (fifo|locality)");
      rc.policy = *p;
    } else if (key == "locality_window") {
      const std::int64_t w = value.as_int();
      DEFA_CHECK(w >= 1, "protocol: 'locality_window' must be >= 1");
      rc.locality_window = static_cast<int>(w);
    } else if (key == "backend") {
      const std::string b = value.as_string();
      DEFA_CHECK(b.empty() || kernels::find_backend(b) != nullptr,
                 "protocol: unknown backend '" + b +
                     "' (known: " + kernels::known_backends() + ")");
      rc.backend = b;
    } else if (key == "max_contexts") {
      const std::int64_t n = value.as_int();
      DEFA_CHECK(n >= 0, "protocol: 'max_contexts' must be >= 0");
      rc.max_contexts = static_cast<std::size_t>(n);
    } else if (key == "max_memo") {
      const std::int64_t n = value.as_int();
      DEFA_CHECK(n >= 0, "protocol: 'max_memo' must be >= 0");
      rc.max_memo = static_cast<std::size_t>(n);
    } else if (key == "memoize_results") {
      rc.memoize_results = value.as_bool();
    } else if (key == "reset_stats") {
      rc.reset_stats = value.as_bool();
    } else {
      DEFA_CHECK(false, "protocol: unknown reconfigure params key '" + key + "'");
    }
  }
  return rc;
}

api::Json reconfig_params(const ServerReconfig& rc) {
  api::Json j = api::Json::object();
  if (rc.policy.has_value()) j["policy"] = policy_name(*rc.policy);
  if (rc.locality_window.has_value()) j["locality_window"] = *rc.locality_window;
  if (rc.backend.has_value()) j["backend"] = *rc.backend;
  if (rc.max_contexts.has_value()) {
    j["max_contexts"] = static_cast<double>(*rc.max_contexts);
  }
  if (rc.max_memo.has_value()) j["max_memo"] = static_cast<double>(*rc.max_memo);
  if (rc.memoize_results.has_value()) j["memoize_results"] = *rc.memoize_results;
  if (rc.reset_stats) j["reset_stats"] = true;
  return j;
}

// ------------------------------------------------------------------- sessions

namespace {

/// Milliseconds elapsed since `t0` (serialization accounting).
double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Shared state of one protocol session.  Completion callbacks fire on
/// evaluator threads, so writes are serialized under `write_mu` and the
/// session loop waits for `pending == 0` before returning — the state
/// must outlive every callback, hence the shared_ptr ownership.
struct SessionState {
  explicit SessionState(Connection& c) : conn(&c) {}

  void write(const api::Json& frame) {
    // Serialize outside the write lock; the dump is the v1 encode cost the
    // serialization share in BENCH_serve.json compares against v2.
    const auto t0 = std::chrono::steady_clock::now();
    const std::string text = frame.dump();
    wire::SerStats::instance().add_encode(1, ms_since(t0), text.size() + 1);
    const std::lock_guard<std::mutex> lock(write_mu);
    // A vanished peer (disconnect mid-batch) makes write_frame return
    // false; evaluation still completes and the response is dropped —
    // that is the peer's choice, not an error.
    conn->write_frame(text);
  }

  void add_pending() {
    const std::lock_guard<std::mutex> lock(pending_mu);
    ++pending;
  }
  void done_pending() {
    const std::lock_guard<std::mutex> lock(pending_mu);
    if (--pending == 0) pending_cv.notify_all();
  }
  void wait_idle() {
    std::unique_lock<std::mutex> lock(pending_mu);
    pending_cv.wait(lock, [this] { return pending == 0; });
  }

  Connection* conn;
  std::mutex write_mu;
  std::mutex pending_mu;
  std::condition_variable pending_cv;
  int pending = 0;
};

/// In-flight bookkeeping of one eval_batch frame: per-item payload slots
/// filled from completion callbacks, the frame written when the last
/// outstanding item lands.
struct BatchState {
  std::string id;
  std::shared_ptr<SessionState> session;
  std::vector<api::Json> items;
  std::atomic<int> remaining{0};

  void finish() {
    api::Json results = api::Json::array();
    for (api::Json& item : items) results.push_back(std::move(item));
    api::Json payload = api::Json::object();
    payload["results"] = std::move(results);
    session->write(make_ok_frame(id, std::move(payload)));
    session->done_pending();
  }
};

/// One batch item as `{"ok", "result" | "error"}` mirroring single-eval
/// payloads (items have no ids; order answers position).
api::Json batch_item_payload(const ServeResponse& r) {
  api::Json item = api::Json::object();
  if (r.status == ResponseStatus::kOk) {
    item["ok"] = true;
    item["result"] = eval_result_payload(r);
  } else {
    item["ok"] = false;
    api::Json err = api::Json::object();
    err["code"] = error_code_name(error_code_for(r.status));
    err["message"] = r.error;
    err["queue_ms"] = r.queue_ms;
    err["total_ms"] = r.total_ms;
    item["error"] = std::move(err);
  }
  return item;
}

api::Json batch_item_error(ErrorCode code, const std::string& message) {
  api::Json item = api::Json::object();
  item["ok"] = false;
  api::Json err = api::Json::object();
  err["code"] = error_code_name(code);
  err["message"] = message;
  item["error"] = std::move(err);
  return item;
}

const char* const kKnownMethods =
    "hello, eval, eval_batch, metrics, backends, experiments, experiment, "
    "ping, reconfigure, trace, drain";

/// The `hello` handshake result: the negotiated wire version for this
/// session.  `upgrade` is set when the session should switch to the
/// binary v2 framing after the ok response goes out.
api::Json handle_hello(const api::Json& params, const ProtocolOptions& options,
                       bool& upgrade) {
  int client_max = 1;
  if (!params.is_null()) {
    DEFA_CHECK(params.is_object(), "protocol: hello params must be an object");
    for (const auto& [key, value] : params.members()) {
      DEFA_CHECK(key == "max_version",
                 "protocol: unknown hello params key '" + key + "'");
    }
    if (const api::Json* v = params.find("max_version")) {
      const std::int64_t m = v->as_int();
      DEFA_CHECK(m >= 1, "protocol: 'max_version' must be >= 1");
      client_max = static_cast<int>(std::min<std::int64_t>(m, wire::kWireVersion));
    }
  }
  const int negotiated =
      std::max(1, std::min(client_max, options.max_wire_version));
  upgrade = negotiated >= 2;
  api::Json j = api::Json::object();
  j["version"] = negotiated;
  j["max_frame_bytes"] = static_cast<double>(options.max_frame_bytes);
  return j;
}

void handle_eval(const std::string& id, const api::Json& params, Server& server,
                 const std::shared_ptr<SessionState>& state,
                 std::uint64_t trace_id) {
  ServeRequest req = eval_request_from_params(params);
  req.trace_id = trace_id;
  state->add_pending();
  server.submit_async(std::move(req), [id, state](const ServeResponse& resp) {
    state->write(eval_response_frame(id, resp));
    state->done_pending();
  });
}

void handle_eval_batch(const std::string& id, const api::Json& params,
                       Server& server, const std::shared_ptr<SessionState>& state,
                       std::uint64_t trace_id) {
  DEFA_CHECK(params.is_object(), "protocol: eval_batch params must be an object");
  for (const auto& [key, value] : params.members()) {
    DEFA_CHECK(key == "requests" || key == "priority" || key == "timeout_ms",
               "protocol: unknown eval_batch params key '" + key + "'");
  }
  Priority batch_priority = Priority::kNormal;
  double batch_timeout = 0;
  if (const api::Json* p = params.find("priority")) {
    const std::optional<Priority> pri = priority_from_name(p->as_string());
    DEFA_CHECK(pri.has_value(), "protocol: unknown priority '" + p->as_string() + "'");
    batch_priority = *pri;
  }
  if (const api::Json* t = params.find("timeout_ms")) batch_timeout = t->as_number();
  const api::Json& reqs = params.at("requests");
  DEFA_CHECK(reqs.is_array() && reqs.size() > 0,
             "protocol: 'requests' must be a non-empty array");

  auto batch = std::make_shared<BatchState>();
  batch->id = id;
  batch->session = state;
  batch->items.resize(reqs.size());

  // Two passes: parse everything first so `remaining` is final before any
  // completion callback can observe it (a fast engine could otherwise
  // finish item 0 and see remaining == 1 mid-construction).
  std::vector<std::optional<ServeRequest>> parsed(reqs.size());
  int submitted = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const api::Json& item = reqs.at(i);
    try {
      ServeRequest r = eval_request_from_params(item);
      // The envelope's trace context covers the whole batch: every item's
      // spans record under the same id.
      r.trace_id = trace_id;
      // Batch-level priority/timeout are defaults for items that did not
      // set their own — presence decides, so an explicit "normal" (or an
      // explicit timeout_ms of 0) is honored, not overridden.
      if (!(item.is_object() && item.contains("priority"))) {
        r.priority = batch_priority;
      }
      if (!(item.is_object() && item.contains("timeout_ms"))) {
        r.timeout_ms = batch_timeout;
      }
      parsed[i] = std::move(r);
      ++submitted;
    } catch (const std::exception& e) {
      batch->items[i] = batch_item_error(ErrorCode::kValidation, e.what());
    }
  }
  state->add_pending();
  if (submitted == 0) {
    batch->finish();
    return;
  }
  batch->remaining.store(submitted, std::memory_order_relaxed);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    if (!parsed[i].has_value()) continue;
    server.submit_async(std::move(*parsed[i]),
                        [batch, i](const ServeResponse& resp) {
                          batch->items[i] = batch_item_payload(resp);
                          if (batch->remaining.fetch_sub(
                                  1, std::memory_order_acq_rel) == 1) {
                            batch->finish();
                          }
                        });
  }
}

/// The `ping`/`reconfigure` server info block.  Taken from a coherent
/// options snapshot (reconfigure can run concurrently); the keys from
/// before the reconfigure method are frozen, additions are append-only
/// (docs/PROTOCOL.md compat rules).
api::Json server_info(Server& server) {
  const ServerOptions opts = server.options_snapshot();
  api::Json info = api::Json::object();
  info["policy"] = policy_name(opts.policy);
  info["workers"] = opts.max_concurrency;
  info["queue_capacity"] = static_cast<double>(opts.queue_capacity);
  info["backend"] = opts.engine.backend.empty() ? kernels::default_backend_name()
                                                : opts.engine.backend;
  info["draining"] = server.draining();
  info["locality_window"] = opts.locality_window;
  info["max_contexts"] = static_cast<double>(opts.engine.max_contexts);
  info["max_memo"] = static_cast<double>(opts.engine.max_memo);
  info["memoize_results"] = opts.engine.memoize_results;
  return info;
}

api::Json handle_ping(Server& server) {
  api::Json j = api::Json::object();
  j["protocol"] = kProtocolVersion;
  j["pong"] = true;
  j["server"] = server_info(server);
  return j;
}

api::Json handle_reconfigure(const api::Json& params, Server& server) {
  server.reconfigure(reconfig_from_params(params));
  api::Json j = api::Json::object();
  j["reconfigured"] = true;
  j["server"] = server_info(server);
  return j;
}

/// The `trace` method: drain the server's span buffer as Chrome
/// trace-event JSON (docs/OBSERVABILITY.md).  Params: optional
/// `{"clear": bool}` (default true — each call hands out every span once,
/// so a client polling after a load run gets exactly that run's spans).
api::Json handle_trace(const api::Json& params) {
  bool clear = true;
  if (!params.is_null()) {
    DEFA_CHECK(params.is_object(), "protocol: trace params must be an object");
    for (const auto& [key, value] : params.members()) {
      DEFA_CHECK(key == "clear", "protocol: unknown trace params key '" + key + "'");
    }
    if (const api::Json* c = params.find("clear")) clear = c->as_bool();
  }
  const std::string process = "defa_serve";
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t dropped = tracer.dropped();  // before collect() resets
  const std::vector<obs::Span> spans = tracer.collect(clear);
  const int pid = static_cast<int>(::getpid());
  api::Json j = api::Json::object();
  j["pid"] = pid;
  j["process"] = process;
  j["enabled"] = tracer.enabled();
  j["dropped"] = static_cast<double>(dropped);
  j["traceEvents"] = obs::trace_events_json(spans, pid, process);
  return j;
}

api::Json handle_backends(Server& server) {
  api::Json j = api::Json::object();
  const ServerOptions opts = server.options_snapshot();
  j["default"] = opts.engine.backend.empty() ? kernels::default_backend_name()
                                             : opts.engine.backend;
  api::Json names = api::Json::array();
  for (const std::string& name : kernels::backend_names()) names.push_back(name);
  j["backends"] = std::move(names);
  return j;
}

api::Json handle_experiments() {
  api::register_builtin_experiments();
  api::Json j = api::Json::object();
  api::Json list = api::Json::array();
  for (const std::string& name : api::Registry::instance().names()) {
    const api::Experiment* e = api::Registry::instance().find(name);
    api::Json entry = api::Json::object();
    entry["name"] = e->name;
    entry["title"] = e->title;
    entry["description"] = e->description;
    list.push_back(std::move(entry));
  }
  j["experiments"] = std::move(list);
  return j;
}

api::Json handle_experiment(const api::Json& params, Server& server) {
  DEFA_CHECK(params.is_object() && params.contains("name"),
             "protocol: experiment params must be {\"name\": ...}");
  for (const auto& [key, value] : params.members()) {
    DEFA_CHECK(key == "name", "protocol: unknown experiment params key '" + key + "'");
  }
  api::register_builtin_experiments();
  const std::string name = params.at("name").as_string();
  std::ostringstream tables;
  // Runs inline on the session thread: experiments are driver-grade admin
  // calls, not latency-sensitive serving traffic, and the shared Engine
  // keeps them cache-coherent with concurrent evals.
  api::Json result = api::run_experiment(server.engine(), name, tables);
  api::Json j = api::Json::object();
  j["name"] = name;
  j["tables"] = tables.str();
  j["json"] = std::move(result);
  return j;
}

}  // namespace

api::Json dispatch_admin_method(const std::string& method,
                                const api::Json& params, Server& server,
                                bool& known) {
  known = true;
  if (method == "metrics") return server.metrics().to_json();
  if (method == "trace") return handle_trace(params);
  if (method == "backends") return handle_backends(server);
  if (method == "experiments") return handle_experiments();
  if (method == "experiment") return handle_experiment(params, server);
  if (method == "ping") return handle_ping(server);
  // Inline on the session thread: Server::reconfigure takes the scheduling
  // lock, so the change lands between dispatches and the response is
  // written only once it is fully applied.
  if (method == "reconfigure") return handle_reconfigure(params, server);
  known = false;
  return {};
}

SessionResult run_protocol_session(Connection& conn, Server& server,
                                   const ProtocolOptions& options,
                                   const std::string* first_frame) {
  SessionResult out;
  auto state = std::make_shared<SessionState>(conn);

  // What one frame decided about the rest of the session.
  enum class FrameOutcome { kContinue, kStop, kUpgrade };
  // Frames that reached method dispatch — `hello` is only legal as the
  // session's first one, so a frame count of 1 at dispatch time is the
  // handshake window.
  int dispatched = 0;

  const auto handle_frame = [&](const std::string& text) -> FrameOutcome {
    if (text.find_first_not_of(" \t\r") == std::string::npos) {
      return FrameOutcome::kContinue;
    }
    if (text.size() > options.max_frame_bytes) {
      ++out.bad_frames;
      state->write(make_error_frame(
          "", ErrorCode::kOversized,
          "frame of " + std::to_string(text.size()) + " bytes exceeds the " +
              std::to_string(options.max_frame_bytes) + "-byte limit"));
      return FrameOutcome::kContinue;
    }
    api::Json frame;
    [[maybe_unused]] const std::int64_t parse_ts_us = obs::now_us();
    const auto parse_t0 = std::chrono::steady_clock::now();
    try {
      frame = api::Json::parse(text);
    } catch (const std::exception& e) {
      ++out.bad_frames;
      state->write(make_error_frame("", ErrorCode::kParse, e.what()));
      return FrameOutcome::kContinue;
    }
    const double parse_ms = ms_since(parse_t0);
    wire::SerStats::instance().add_decode(1, parse_ms, text.size() + 1);

    std::string id;
    try {
      DEFA_CHECK(frame.is_object(), "frame must be a JSON object");
      if (const api::Json* i = frame.find("id")) id = i->as_string();
      for (const auto& [key, value] : frame.members()) {
        DEFA_CHECK(key == "v" || key == "id" || key == "method" ||
                       key == "params" || key == "trace_id",
                   "unknown envelope key '" + key + "'");
      }
      // Optional trace context: honored only while this server's tracer
      // is enabled (tracing is opt-in per process, not client-forced).
      std::uint64_t trace_id = 0;
      if (const api::Json* t = frame.find("trace_id")) {
        trace_id = obs::trace_id_from_hex(t->as_string());
        if (!obs::Tracer::instance().enabled()) trace_id = 0;
      }
#if DEFA_TRACE
      if (trace_id != 0) {
        obs::record_span("wire_decode", "wire", parse_ts_us,
                         static_cast<std::int64_t>(parse_ms * 1000.0), trace_id,
                         {{"version", "1"},
                          {"bytes", std::to_string(text.size() + 1)}});
      }
#endif
      const api::Json* v = frame.find("v");
      if (v == nullptr || v->as_int() != kProtocolVersion) {
        ++out.bad_frames;
        state->write(make_error_frame(
            id, ErrorCode::kVersion,
            v == nullptr ? "missing 'v' (this server speaks Protocol v" +
                               std::to_string(kProtocolVersion) + ")"
                         : "unsupported protocol version " +
                               std::to_string(v->as_int()) + " (this server speaks v" +
                               std::to_string(kProtocolVersion) + ")"));
        return FrameOutcome::kContinue;
      }
      const std::string method = frame.at("method").as_string();
      const api::Json* params = frame.find("params");
      static const api::Json kNull;
      ++dispatched;

      if (method == "hello") {
        // Only legal as the very first frame: the answer is the session's
        // last v1 line when an upgrade is negotiated, and mid-session
        // re-negotiation would tear frame boundaries out from under
        // responses already in flight.
        if (dispatched != 1) {
          ++out.bad_frames;
          state->write(make_error_frame(
              id, ErrorCode::kValidation,
              "hello must be the first frame of a session"));
          return FrameOutcome::kContinue;
        }
        bool upgrade = false;
        const api::Json result =
            handle_hello(params == nullptr ? kNull : *params, options, upgrade);
        state->write(make_ok_frame(id, result));
        return upgrade ? FrameOutcome::kUpgrade : FrameOutcome::kContinue;
      }
      if (method == "eval") {
        handle_eval(id, params == nullptr ? kNull : *params, server, state,
                    trace_id);
      } else if (method == "eval_batch") {
        handle_eval_batch(id, params == nullptr ? kNull : *params, server,
                          state, trace_id);
      } else if (method == "drain") {
        server.drain();  // stop admitting, finish in-flight
        api::Json payload = api::Json::object();
        payload["drained"] = true;
        payload["metrics"] = server.metrics().to_json();
        state->write(make_ok_frame(id, std::move(payload)));
        out.drained = true;
        if (options.on_drain) options.on_drain();
        return FrameOutcome::kStop;
      } else {
        bool known = true;
        api::Json result = dispatch_admin_method(
            method, params == nullptr ? kNull : *params, server, known);
        if (known) {
          state->write(make_ok_frame(id, std::move(result)));
        } else {
          ++out.bad_frames;
          state->write(make_error_frame(
              id, ErrorCode::kUnknownMethod,
              "unknown method '" + method + "' (known: " +
                  std::string(kKnownMethods) + ")"));
        }
      }
    } catch (const std::exception& e) {
      ++out.bad_frames;
      state->write(make_error_frame(id, ErrorCode::kValidation, e.what()));
    }
    return FrameOutcome::kContinue;
  };

  FrameOutcome oc = first_frame == nullptr ? FrameOutcome::kContinue
                                           : handle_frame(*first_frame);
  std::string text;
  while (oc == FrameOutcome::kContinue && conn.read_frame(text)) {
    oc = handle_frame(text);
  }
  // EOF or drain with evals still in flight (including a peer that
  // disconnected mid-batch): wait for their callbacks so `state`'s writes
  // are done before the caller tears the connection down.
  state->wait_idle();
  if (oc == FrameOutcome::kUpgrade) {
    // The hello ok above was the session's last JSON line; everything the
    // peer sends from here on is binary v2 frames.
    wire::run_wire_session(conn, server, options, out);
    return out;
  }
  // A drained session is over: shut the connection so the peer sees EOF
  // instead of waiting on a socket nobody reads anymore.
  if (out.drained) conn.shutdown();
  return out;
}

SessionResult run_serve_connection(Connection& conn, Server& server,
                                   const ProtocolOptions& options) {
  // Auto-detection: the first non-blank frame decides the session mode.
  // An object with a "v" key speaks Protocol v1; anything else (bare
  // EvalRequest lines, legacy envelopes, even unparseable garbage, which
  // the legacy loop answers with bad_request) gets the legacy loop.
  std::string first;
  while (true) {
    if (!conn.read_frame(first)) return {};
    if (first.find_first_not_of(" \t\r") != std::string::npos) break;
  }
  bool v1 = false;
  try {
    const api::Json j = api::Json::parse(first);
    v1 = j.is_object() && j.contains("v");
  } catch (const std::exception&) {
    v1 = false;
  }
  if (v1) return run_protocol_session(conn, server, options, &first);
  SessionResult out;
  out.legacy = true;
  out.bad_frames = run_legacy_session(conn, server, &first);
  return out;
}

}  // namespace defa::serve
